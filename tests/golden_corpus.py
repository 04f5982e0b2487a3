"""Seeded corpus behind the golden-byte tests, and the script that writes it.

The rotation corpus holds 200 degree-1 PL lifts of three kinds: rigid
rotations p/q with q <= 30, lifts carrying a p/d periodic orbit on their
breakpoints (d <= 12), and Farey-gap maps whose displacement stays strictly
inside a Farey gap of order 60, so that no rational with denominator <= 60
certifies.  Each lift gets `rotation_report` at q = 7, 25 and 60 from x0 = 0,
one report from a nonzero exact x0 and one from a binary64 x0.

The CLI corpus holds seeded induced descriptors of degrees 1-6 (genuine
degree-n lifts and degree-1 lifts embedded at degree n) and records the exit
code and stdout of `rotation`, `hull` and `orbit` on each.  The `semiconj`
corpus runs that subcommand on the same descriptors and on the checked-in
ones.  The `density` corpus runs it on `descriptors/lp_tower4.json` and on
seeded limit-periodic towers of depth 2-5, in every format, at 1, 64 and 600
samples; `density` ignores the sample count, so those three are identical.

The orbit-verdict corpus runs `classify_orbit` with its trace from seeded
exact starts on the induced descriptors whose rotation number certifies, and
`sol_dist` on seeded exact pairs of mixed depth with denominators up to about
10^30.  The read-path corpus pins `apply`, `project` at every divisor of
the degree, the `K_map` and quotient-map parameters, `hull_dist` and the
`check_semiconjugacy` reports on seeded induced maps of degree 1-6 (genuine
and embedded, offsets -2..2, plus one analytic map), over exact points with
denominators up to 10^30 and binary64 points; values are written with `repr`,
so the type of every coordinate is pinned too.  The script corpus runs each script under `scripts/` in a fresh
working directory and keeps its stdout and the files it writes.  The
criterion-10 corpus keeps the exact bytes that the six acceptance-criterion
10 CLI jobs write through `--out`.

Certified outputs must not change under refactors, so the stored files are
regenerated only by a change that means to alter them:

    PYTHONPATH=src python tests/golden_corpus.py
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROTATION_PATH = GOLDEN_DIR / "rotation_reports.json"
CLI_PATH = GOLDEN_DIR / "cli_outputs.json"
SEMICONJ_PATH = GOLDEN_DIR / "semiconj_outputs.json"
DENSITY_PATH = GOLDEN_DIR / "density_outputs.json"
ORBIT_PATH = GOLDEN_DIR / "orbit_verdicts.json"
SCRIPTS_PATH = GOLDEN_DIR / "script_outputs.json"
CRITERION10_PATH = GOLDEN_DIR / "criterion10_outputs.json"
READ_PATH_PATH = GOLDEN_DIR / "read_path_outputs.json"
ROOT = GOLDEN_DIR.parents[1]
DESCRIPTORS = ROOT / "descriptors"

REPORT_QS = (7, 25, 60)
X0_Q = 25
FAREY_ORDER = 60
CLI_ITERS = ("12", "24")
DENSITY_SAMPLES = ("1", "64", "600")
DENSITY_FORMATS = ("csv", "json", "svg")
ORBIT_STARTS = 3
SOL_DIST_PAIRS = 200
READ_EXACT_POINTS = 4
READ_FLOAT_POINTS = 2
SCRIPT_RUNS = (
    ("rotation_sweep.py", ["30"]),
    ("orbit_trace.py", []),
    ("orbit_trace.py", ["1/3"]),
    ("density_report.py", []),
)
# (subcommand, checked-in descriptor, extra flags) of acceptance criterion 10
CRITERION10_JOBS = (
    ("rotation", "halfmap.json", ["--iters", "10"]),
    ("orbit", "fixedpoint_homeo.json", ["--start", "1/2", "--iters", "40"]),
    ("semiconj", "rot35_homeo.json", ["--samples", "50", "--seed", "9"]),
    ("hull", "halfmap.json", ["--iters", "50"]),
    ("density", "lp_tower4.json", ["--samples", "500"]),
    ("density", "lp_tower4.json", ["--samples", "500", "--format", "svg"]),
)


def dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _between(rng: random.Random, lo: Fraction, hi: Fraction, m: int) -> list[Fraction]:
    """m increasing rationals strictly between lo and hi."""
    steps = 3 * m + 3
    ks = sorted(rng.sample(range(1, steps), m))
    return [lo + (hi - lo) * Fraction(k, steps) for k in ks]


def periodic_orbit_lift(rng: random.Random, p: int, d: int, extra: int, den: int):
    """A degree-1 PL lift with a p/d periodic orbit through some breakpoints.

    The orbit points are breakpoints xs[o_0] < ... < xs[o_{d-1}] and the lift
    maps xs[o_j] to xs[o_{j+p}] (indices mod d, plus the integer carry); the
    other breakpoints take random values strictly between their anchored
    neighbours, so the lift is increasing by construction.
    """
    from soldyn import pl_new

    nb = d + extra
    xs = sorted(Fraction(k, den) for k in rng.sample(range(den), nb))
    orbit = sorted(rng.sample(range(nb), d))
    ys: list = [None] * nb
    for j, idx in enumerate(orbit):
        t = j + p
        ys[idx] = xs[orbit[t % d]] + t // d
    # walk the breakpoints cyclically from the first anchored one
    start = orbit[0]
    order = list(range(start, nb)) + list(range(start))
    vals = [ys[i] for i in order]  # breakpoints before `start` are not anchored
    xcyc = [xs[i] if i >= start else xs[i] + 1 for i in order]
    marks = [k for k, v in enumerate(vals) if v is not None] + [len(order)]
    vals.append(vals[0] + 1)
    for a, b in zip(marks, marks[1:]):
        if b - a > 1:
            for k, v in zip(range(a + 1, b), _between(rng, vals[a], vals[b], b - a - 1)):
                vals[k] = v
    pts = [(x - 1, y - 1) if x >= 1 else (x, y) for x, y in zip(xcyc, vals[:-1])]
    return pl_new(1, pts)


def farey_gap(rng: random.Random, n: int) -> tuple[Fraction, Fraction]:
    """Consecutive Farey neighbours a/b < c/d of order n."""
    while True:
        b = rng.randint(n // 2 + 1, n)
        a = rng.randrange(b)
        if math.gcd(a, b) == 1:
            break
    r = (-pow(a, -1, b)) % b
    d = r + ((n - r) // b) * b
    c = (1 + a * d) // b
    return Fraction(a, b), Fraction(c, d)


def rotation_corpus(seed: int = 0) -> list[tuple[str, object]]:
    """(kind, lift) pairs: 70 rigid, 80 periodic-orbit, 50 Farey-gap lifts."""
    from soldyn import pl_new, rotation_lift

    rng = random.Random(f"golden-rotation:{seed}")
    out = []
    for _ in range(70):
        q = rng.randint(1, 30)
        out.append(("rigid", rotation_lift(Fraction(rng.randrange(-q, 2 * q), q))))
    for i in range(80):
        d = 1 + i % 12
        p = rng.choice([p for p in range(d) if math.gcd(p, d) == 1]) + rng.randint(-1, 1)
        den = rng.choice([24, 36, 48])
        out.append(("periodic", periodic_orbit_lift(rng, p, d, rng.randint(0, 3), den)))
    for i in range(50):
        lo, hi = farey_gap(rng, FAREY_ORDER)
        nb = 2 + i % 3
        xs = sorted(Fraction(k, 12) for k in rng.sample(range(12), nb))
        F = pl_new(1, [(x, x + lo + Fraction(rng.randint(1, 9), 10) * (hi - lo)) for x in xs])
        out.append(("farey", F))
    return out


def rotation_cases(seed: int = 0) -> list[dict]:
    """Every (lift, q, x0) case of the rotation golden, without its report."""
    rng = random.Random(f"golden-x0:{seed}")
    cases = []
    for i, (kind, F) in enumerate(rotation_corpus(seed)):
        starts = [(q, 0) for q in REPORT_QS]
        starts.append((X0_Q, Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 9))))
        starts.append((X0_Q, rng.choice([0.3, -1.7, 2.25, 0.1])))
        for q, x0 in starts:
            cases.append({"id": i, "kind": kind, "F": F, "q": q, "x0": x0})
    return cases


def rotation_golden(seed: int = 0) -> list[dict]:
    from soldyn import rotation_report

    rows = []
    for c in rotation_cases(seed):
        rep = rotation_report(c["F"], c["q"], c["x0"])
        rows.append({
            "id": c["id"], "kind": c["kind"], "map": repr(c["F"]),
            "q": c["q"], "x0": repr(c["x0"]), "report": rep.to_report(),
        })
    return rows


def cli_descriptors(seed: int = 0) -> list[dict]:
    """Induced descriptors of degrees 1-6: genuine and embedded, some with a fixed point."""
    from soldyn import embed_degree, induce, pl_new

    rng = random.Random(f"golden-cli:{seed}")
    out = []
    for n in range(1, 7):
        for j in range(4):
            embedded = n > 1 and j % 2 == 1
            base = 1 if embedded else n
            nb = (2 + rng.randrange(2)) * base
            xs = sorted(Fraction(k, 8) for k in rng.sample(range(8 * base), nb))
            gaps = [rng.randint(1, 6) for _ in range(nb)]
            scale = Fraction(base, sum(gaps))
            ys = [xs[0]]
            for g in gaps[:-1]:
                ys.append(ys[-1] + g * scale)
            if j < 2:
                k = rng.randrange(nb)  # F0 fixes the breakpoint xs[k]
                shift = xs[k] - ys[k]
            else:
                shift = Fraction(rng.randint(-4, 4), 16)
            ys = [y + shift for y in ys]
            f = induce(pl_new(base, list(zip(xs, ys))), rng.randint(-2, 2))
            if embedded:
                f = embed_degree(f, n)
            out.append(f.to_descriptor())
    return out


def _invoke_rows(jobs: list[tuple[int, dict, list[str]]]) -> list[dict]:
    """Exit code and stdout of each (id, descriptor, [subcommand, *flags]) job."""
    from click.testing import CliRunner

    from soldyn.cli import main

    runner = CliRunner()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, desc, args in jobs:
            path = Path(tmp) / f"d{i:02d}.json"
            path.write_text(json.dumps(desc), encoding="utf-8")
            res = runner.invoke(main, [args[0], "--input", str(path), *args[1:]])
            row = {
                "id": i, "args": args, "descriptor": desc,
                "exit_code": res.exit_code, "stdout": res.stdout,
            }
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                row["uncaught"] = type(res.exception).__name__
            rows.append(row)
    return rows


def cli_golden(seed: int = 0) -> list[dict]:
    jobs = []
    for i, desc in enumerate(cli_descriptors(seed)):
        args = [["rotation", "--iters", it] for it in CLI_ITERS]
        args.append(["hull", "--iters", CLI_ITERS[-1]])
        args.append(["orbit", "--iters", CLI_ITERS[0], "--start", "1/3"])
        jobs += [(i, desc, a) for a in args]
    return _invoke_rows(jobs)


def _checked_in(name: str) -> dict:
    return json.loads((DESCRIPTORS / f"{name}.json").read_text(encoding="utf-8"))


def semiconj_golden(seed: int = 0) -> list[dict]:
    """`semiconj` on the induced corpus and on the checked-in descriptors
    (the analytic one exits 1, the limit-periodic one exits 2)."""
    descs = cli_descriptors(seed) + [
        _checked_in(name) for name in
        ("halfmap", "rot35_homeo", "fixedpoint_homeo", "golden_analytic", "lp_tower4")
    ]
    jobs = [
        (i, desc, ["semiconj", "--samples", "12", "--seed", str(i), "--depth", str(4 + i % 5)])
        for i, desc in enumerate(descs)
    ]
    return _invoke_rows(jobs)


def lp_tower_descriptors(seed: int = 0) -> list[dict]:
    """`lp_tower4.json`, then seeded towers of depth 2-5 with signed summands;
    half of the seeded towers declare a zero tail bound."""
    from genutil import rand_lp

    rng = random.Random(f"golden-density:{seed}")
    chains = ((1, 3), (1, 2, 6), (2, 4, 12, 24), (1, 2, 4, 12, 24), (1, 3, 6, 12, 24))
    out = [_checked_in("lp_tower4")]
    for i, tower in enumerate(chains):
        out.append(rand_lp(rng, tower, zero_tail=i % 2 == 0).to_descriptor())
    return out


def density_golden(seed: int = 0) -> list[dict]:
    jobs = [
        (i, desc, ["density", "--samples", n, "--format", fmt])
        for i, desc in enumerate(lp_tower_descriptors(seed))
        for n in DENSITY_SAMPLES
        for fmt in DENSITY_FORMATS
    ]
    return _invoke_rows(jobs)


def _verdict_row(v) -> dict:
    row = {"kind": type(v).__name__}
    if hasattr(v, "target"):
        row.update(target=v.target.render(), iterations=v.iterations, distance=str(v.distance))
    elif hasattr(v, "point"):
        row["point"] = v.point.render()
    else:
        row["reason"] = v.reason
    if getattr(v, "trace", ()):
        row["trace"] = [[i, str(d)] for i, d in v.trace]
    return row


def orbit_golden(seed: int = 0) -> list[dict]:
    """`classify_orbit` from seeded exact starts on the induced corpus, then
    `sol_dist` on seeded exact pairs of mixed depth.

    A certified p/q with n not dividing p is classified as (np)/(nq), whose
    return map the degree-n fibers track.
    """
    from soldyn import (
        SolenoidPoint, classify_orbit, embed_int, homeo_from_descriptor,
        rotation_report, sol_dist,
    )

    rng = random.Random(f"golden-orbit:{seed}")
    rows = []
    for i, desc in enumerate(cli_descriptors(seed)):
        f = homeo_from_descriptor(desc)
        rho = rotation_report(f, int(CLI_ITERS[-1])).exact
        if rho is None:
            continue
        n = f.degree
        p, q = rho.numerator, rho.denominator
        if p % n:
            p, q = n * p, n * q
        for _ in range(ORBIT_STARTS):
            depth = rng.randint(max(n, 4), 8)
            den = rng.randint(1, 64)
            s = SolenoidPoint(
                Fraction(rng.randrange(den), den),
                embed_int(rng.randrange(math.factorial(depth)), depth),
            )
            v = classify_orbit(f, s, p, q, collect_trace=True)
            rows.append({
                "id": i, "p": p, "q": q, "start": s.render(), "verdict": _verdict_row(v),
            })
    for _ in range(SOL_DIST_PAIRS):
        pts = []
        for _ in range(2):
            depth = rng.randint(1, 10)
            den = rng.randint(1, 10 ** rng.randint(1, 30))
            pts.append(SolenoidPoint(
                Fraction(rng.randrange(den), den),
                embed_int(rng.randrange(math.factorial(depth)), depth),
            ))
        s, t = pts
        rows.append({"s": s.render(), "t": t.render(), "sol_dist": str(sol_dist(s, t))})
    return rows


def read_path_maps(seed: int = 0) -> list:
    """Induced maps of degree 1-6 for every offset in -2..2: a genuine
    degree-n lift, a degree-1 lift embedded at degree n (n > 1), and one
    analytic map of degree 2."""
    from genutil import rand_pl_lift

    from soldyn import analytic_new, embed_degree, induce

    rng = random.Random(f"golden-read-path:{seed}")
    out = []
    for n in range(1, 7):
        for offset in range(-2, 3):
            out.append(induce(rand_pl_lift(rng, n, rng.randint(1, 3) * n, 8), offset))
            if n > 1:
                out.append(embed_degree(induce(rand_pl_lift(rng, 1, rng.randint(1, 4), 12), offset), n))
    out.append(induce(analytic_new(0.3, [(0.05, 2.0)], 2), -1))
    return out


def read_path_golden(seed: int = 0) -> list[dict]:
    """The read path on the solenoid, per map: images, projections, K
    parameters, quotient-map parameters, hull distances and semi-conjugacy
    reports, each value written with `repr`."""
    from soldyn import (
        PLLift, SolenoidPoint, apply, check_semiconjugacy, divisors, embed_int, g_apply,
        hull_dist, hull_of, K_map, leaf_displacement, project, quotient_map,
    )

    rng = random.Random(f"golden-read-points:{seed}")
    rows = []
    for i, f in enumerate(read_path_maps(seed)):
        n = f.degree
        lo = next(m for m in range(1, 11) if math.factorial(m) % n == 0)
        pts = []
        for j in range(READ_EXACT_POINTS + READ_FLOAT_POINTS):
            depth = rng.randint(lo, 10)
            if j < READ_EXACT_POINTS:
                den = rng.randint(1, 10 ** rng.randint(1, 30))
                x = Fraction(rng.randrange(den), den)
            else:
                x = rng.random()
            pts.append(SolenoidPoint(x, embed_int(rng.randrange(math.factorial(depth)), depth)))
        imgs = [apply(f, s) for s in pts]
        row = {
            "id": i, "map": repr(f.base), "offset": f.offset,
            "points": [[repr(s.x), s.k.value, s.depth] for s in pts],
            "images": [[repr(t.x), t.k.value, t.depth] for t in imgs],
            "projections": [
                [repr(project(t, d).value) for d in divisors(n)] for t in pts + imgs
            ],
        }
        if isinstance(f.base, PLLift):
            hull = hull_of(leaf_displacement(f))
            gm = quotient_map(leaf_displacement(f))
            ks = [K_map(s, hull) for s in pts]
            lhs = [K_map(t, hull) for t in imgs]
            rhs = [g_apply(gm, k) for k in ks]
            row.update(
                period=repr(hull.period),
                K=[repr(k.param) for k in ks + lhs],
                g=[repr(k.param) for k in rhs],
                hull_dist=[repr(hull_dist(a, b)) for a, b in zip(ks, ks[1:] + lhs)]
                + [repr(hull_dist(a, b)) for a, b in zip(lhs, rhs)],
                semiconj_exact=check_semiconjugacy(f, pts[:READ_EXACT_POINTS]).to_report(),
                semiconj_all=check_semiconjugacy(f, pts).to_report(),
            )
        rows.append(row)
    return rows


def script_golden() -> list[dict]:
    """Stdout and written files of each script run in a fresh working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    rows = []
    for script, args in SCRIPT_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            res = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / script), *args],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
            )
            files = {
                p.name: p.read_text(encoding="utf-8") for p in sorted(Path(tmp).iterdir())
            }
        rows.append({
            "script": script, "args": args, "exit_code": res.returncode,
            "stdout": res.stdout, "files": files,
        })
    return rows


def criterion10_invoke(runner, job, out: Path):
    """Run one criterion-10 job in process, writing its output to `out`."""
    from soldyn.cli import main

    cmd, name, flags = job
    args = [cmd, "--input", str(DESCRIPTORS / name), *flags, "--out", str(out)]
    return runner.invoke(main, args)


def criterion10_golden() -> list[dict]:
    """Exit code and the exact bytes written by each criterion-10 job."""
    from click.testing import CliRunner

    runner = CliRunner()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, job in enumerate(CRITERION10_JOBS):
            out = Path(tmp) / f"job{i}.out"
            res = criterion10_invoke(runner, job, out)
            rows.append({
                "cmd": job[0], "input": job[1], "flags": job[2],
                "exit_code": res.exit_code, "output": out.read_bytes().decode("utf-8"),
            })
    return rows


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    ROTATION_PATH.write_text(dump(rotation_golden()), encoding="utf-8")
    CLI_PATH.write_text(dump(cli_golden()), encoding="utf-8")
    SEMICONJ_PATH.write_text(dump(semiconj_golden()), encoding="utf-8")
    DENSITY_PATH.write_text(dump(density_golden()), encoding="utf-8")
    ORBIT_PATH.write_text(dump(orbit_golden()), encoding="utf-8")
    SCRIPTS_PATH.write_text(dump(script_golden()), encoding="utf-8")
    CRITERION10_PATH.write_text(dump(criterion10_golden()), encoding="utf-8")
    READ_PATH_PATH.write_text(dump(read_path_golden()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
