"""A seeded mutation sample of one soldyn module: which swapped operator no
test notices.

Usage: python tests/mutants.py MODULE [--count N] [--seed S] [--timeout SEC]

Lists every operator site of src/soldyn/MODULE.py (comparisons, arithmetic
and bit operators, `and`/`or`, unary minus), draws N of them with a fixed
seed and, for each, writes the module with that one operator swapped (by
`ast`, written back with `ast.unparse`) into a copy of the whole checkout
(without .git and caches) under a temporary directory, where it runs
`pytest -x -q` on the module's test files, or on the whole suite for a
module that `TESTS` does not list.  A mutant is killed when pytest fails or
passes its timeout; the killed line names the file of the first failing test.
The unmutated copy runs first and must pass, or no mutant is run.
Survivors are printed with their ledger reason, if they are known to be
equivalent; the exit status is 1 when some survivor is not in the ledger.

Standard library only; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the test files that a module's sample has been run against; any other
# module runs the whole suite, which cannot miss a test that kills a mutant
TESTS = {
    "plkernel": ["test_plkernel", "test_circlemaps", "test_dynamics", "test_hull", "test_induced"],
    "hull": ["test_acceptance", "test_golden", "test_hull"],
    "dynamics": ["test_acceptance", "test_dynamics", "test_golden"],
}
MODULES = sorted(p.stem for p in (ROOT / "src" / "soldyn").glob("*.py")
                 if not p.stem.startswith("__"))

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.And: ast.Or, ast.Or: ast.And, ast.USub: ast.UAdd,
}

SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.FloorDiv: "//", ast.Div: "/", ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<",
    ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.And: "and",
    ast.Or: "or", ast.USub: "-x", ast.UAdd: "+x",
}

# survivors known to be equivalent, keyed by (module, function, the original
# expression, the swapped operator), each with one line of reason
LEDGER = {
    ("plkernel", "piece_value", "g > 1", ">="): "g >= 1 there, and dividing by g = 1 changes nothing",
    ("plkernel", "eval_pair", "g > 1", ">="): "g >= 1 there, and dividing by g = 1 changes nothing",
    ("plkernel", "mul", "g1 > 1", ">="): "g1 >= 1 there, and dividing by g1 = 1 changes nothing",
    ("plkernel", "mul", "g2 > 1", ">="): "g2 >= 1 there, and dividing by g2 = 1 changes nothing",
    ("plkernel", "first_return", "t * lo_e < lo_t * e", "<="): "on a tie the minimum keeps its value, and the range is reduced",
    ("plkernel", "first_return", "t * hi_e > hi_t * e", ">="): "on a tie the maximum keeps its value, and the range is reduced",
    ("plkernel", "first_return", "t < 0 < pt", "<="): "a zero at a piece's end is hit at its row too; the closed form gives that end",
    ("plkernel", "first_return", "sd > sn", ">="): "g changes sign on the piece, so its slope is not 1 and sd != sn",
    ("dynamics", "_orbit_bracket", "fl * ld > ln * m", ">="): "on a tie L keeps its value; Fraction(ln, ld) reduces either pair",
}


def sites(tree: ast.AST):
    """(node index in ast.walk order, operator position, enclosing function,
    node) for every swappable operator."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(fn):
                owner.setdefault(id(sub), fn.name)
    out = []
    for i, node in enumerate(ast.walk(tree)):
        ops = node.ops if isinstance(node, ast.Compare) else [getattr(node, "op", None)]
        if not isinstance(node, (ast.Compare, ast.BinOp, ast.BoolOp, ast.UnaryOp)):
            continue
        for j, op in enumerate(ops):
            if type(op) in SWAPS:
                out.append((i, j, owner.get(id(node), "<module>"), node))
    return out


def mutate(source: str, index: int, pos: int) -> tuple[str, str, str]:
    """The source with operator `pos` of node `index` swapped, the original
    expression and the new operator's symbol."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    text = ast.unparse(node)
    if isinstance(node, ast.Compare):
        new = SWAPS[type(node.ops[pos])]()
        node.ops[pos] = new
    else:
        new = SWAPS[type(node.op)]()
        node.op = new
    return ast.unparse(tree), text, SYMBOL[type(new)]


def run(module: str, count: int, seed: int, timeout: float) -> int:
    path = ROOT / "src" / "soldyn" / f"{module}.py"
    source = path.read_text()
    found = sites(ast.parse(source))
    picks = sorted(random.Random(seed).sample(range(len(found)), min(count, len(found))))
    tests = [f"tests/{name}.py" for name in TESTS.get(module, ())] or ["tests"]
    print(f"{module}: {len(found)} operator sites, {len(picks)} drawn with seed {seed}")
    killed = survived = unknown = 0
    with tempfile.TemporaryDirectory(prefix="soldyn-mutants-") as tmp:
        # the whole checkout, since tests read descriptors/ and scripts/ too
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".bench_out", ".benchmarks", ".hypothesis", ".pytest_cache"))
        target = work / "src" / "soldyn" / f"{module}.py"
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")

        def failure() -> str | None:
            """None if the tests pass, else the first failing test's file."""
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                    cwd=work, env=env, capture_output=True, text=True, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return "timeout"
            if done.returncode == 0:
                return None
            found = re.search(r"^(?:FAILED|ERROR) ([^\s:]+)", done.stdout, re.M)
            return found[1] if found else f"pytest exit {done.returncode}"

        if failure():
            sys.exit(f"the unmutated copy fails {' '.join(tests)}")
        for k in picks:
            index, pos, func, node = found[k]
            text, original, symbol = mutate(source, index, pos)
            target.write_text(text)
            start = time.perf_counter()
            killer = failure()
            target.write_text(source)
            label = f"line {node.lineno} {func}: {original!r} -> {symbol}"
            if killer:
                killed += 1
                print(f"  killed   {label} by {killer} ({time.perf_counter() - start:.0f} s)")
                continue
            survived += 1
            reason = LEDGER.get((module, func, original, symbol))
            unknown += reason is None
            print(f"  SURVIVED {label}: {reason or 'not in the ledger'}")
    print(f"{module}: {killed} killed, {survived} survived, {unknown} not in the ledger")
    return 1 if unknown else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", choices=MODULES)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--timeout", type=float, default=120)
    args = ap.parse_args()
    sys.exit(run(args.module, args.count, args.seed, args.timeout))


if __name__ == "__main__":
    main()
