"""The three benchmark workloads: seeded inputs, one job, canonical output, checks.

Every workload is a closed loop: one caller, one thread, the next job starts
when the previous one returns.  A workload object is built from a seed and
holds a fixed pool of generated inputs; job ``i`` of a run uses pool entry
``i % len(pool)``.  Each pool is interleaved so that every prefix has the
same mix of input kinds, which keeps the per-run statistics steady across
seeds.

Only public constructors of ``soldyn`` build the inputs, and the library only
ever sees the generated inputs, never the seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

import soldyn as sd

DEFAULT_SEED = 0
DEPTH = 8
FACT_DEPTH = math.factorial(DEPTH)


def stable_digest(obj) -> str:
    """Short content hash of a JSON-able value, for bulky non-certified fields."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generators shared by the workloads


def _fill(rng: random.Random, lo: Fraction, hi: Fraction, m: int) -> list[Fraction]:
    """m increasing rationals strictly between lo and hi."""
    steps = 4 * m + 4
    ks = sorted(rng.sample(range(1, steps), m))
    return [lo + (hi - lo) * Fraction(k, steps) for k in ks]


def anchored_lift(rng: random.Random, degree: int, xs, anchors: dict):
    """A random strictly increasing PL lift through the anchored breakpoints.

    ``xs`` are sorted abscissae in [0, degree); ``anchors`` maps some indices
    of ``xs`` to prescribed lift values (cyclically increasing).  The other
    breakpoints get random values strictly between their anchored neighbours,
    so the lift is monotone by construction and no input is ever rejected.
    """
    nb = len(xs)
    i0 = min(anchors)
    cyc = list(xs[i0:]) + [x + degree for x in xs[:i0]]
    ys = [None] * nb
    for idx, v in anchors.items():
        ys[idx - i0] = v
    marks = [k for k in range(nb) if ys[k] is not None] + [nb]
    vals = ys + [ys[0] + degree]
    for a, b in zip(marks, marks[1:]):
        if b - a > 1:
            for k, v in zip(range(a + 1, b), _fill(rng, vals[a], vals[b], b - a - 1)):
                ys[k] = v
    pts = [(x, y) if x < degree else (x - degree, y - degree) for x, y in zip(cyc, ys)]
    return sd.pl_new(degree, pts)


def grid_xs(rng: random.Random, degree: int, nb: int, den: int) -> list[Fraction]:
    return sorted(Fraction(k, den) for k in rng.sample(range(degree * den), nb))


def farey_gap(rng: random.Random, n: int) -> tuple[Fraction, Fraction]:
    """Consecutive Farey neighbours a/b < c/d of order n (b*c - a*d = 1).

    No rational with denominator <= n lies strictly between them.
    """
    while True:
        b = rng.randint(n // 2 + 1, n)
        a = rng.randrange(b)
        if math.gcd(a, b) == 1:
            break
    r = (-pow(a, -1, b)) % b
    d = r + ((n - r) // b) * b
    c = (1 + a * d) // b
    return Fraction(a, b), Fraction(c, d)


def rand_point(rng: random.Random, den_max: int = 32) -> sd.SolenoidPoint:
    den = rng.randint(1, den_max)
    return sd.SolenoidPoint(Fraction(rng.randrange(den), den), sd.embed_int(rng.randrange(FACT_DEPTH), DEPTH))


# ---------------------------------------------------------------------------
# certify: building lifts (compose / inverse / power) dominates


class Certify:
    """Rotation reports of seeded degree-1 PL lifts with 2-5 breakpoints.

    Seven in ten maps carry a periodic orbit of type p/d (d <= 4) placed on
    their breakpoints, so their rotation number is exactly p/d and the report
    must certify it.  Three in ten have every displacement value strictly
    inside a Farey gap of order Q, so no rational with denominator <= Q can
    certify and the job runs the whole denominator sweep.  The certified
    value is thus known from the construction, for any seed.
    """

    name = "certify"
    Q = 40
    POOL = 200
    TRACE_JOBS = 40
    PATTERN = "AABAABAABA"
    A_SHAPES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)]

    def __init__(self, seed: int, tmp_root: Path | None = None) -> None:
        rng = random.Random(f"certify:{seed}")
        self.pool = []
        a_i = b_i = 0
        for i in range(self.POOL):
            kind = self.PATTERN[i % len(self.PATTERN)]
            den = rng.choice([6, 8, 12])
            if kind == "A":
                nb, d = self.A_SHAPES[a_i % len(self.A_SHAPES)]
                a_i += 1
                p = rng.choice([p for p in range(d) if math.gcd(p, d) == 1])
                xs = grid_xs(rng, 1, nb, den)
                orbit = sorted(rng.sample(range(nb), d))
                anchors = {}
                for j, idx in enumerate(orbit):
                    t = j + p
                    anchors[idx] = xs[orbit[t % d]] + t // d
                F = anchored_lift(rng, 1, xs, anchors)
                tau = Fraction(p, d)
            else:
                nb = 2 + b_i % 4
                b_i += 1
                lo, hi = farey_gap(rng, self.Q)
                xs = grid_xs(rng, 1, nb, den)
                F = sd.pl_new(1, [(x, x + lo + Fraction(rng.randint(1, 7), 8) * (hi - lo)) for x in xs])
                tau = None
            self.pool.append({"F": F, "tau": tau, "nb": nb, "den": den})

    def run(self, item):
        F = item["F"]
        rep = sd.rotation_report(F, self.Q)
        fp = None
        if rep.exact is not None:
            fp = sd.find_fiber_periodic(sd.induce(F), rep.exact.numerator, rep.exact.denominator)
        return rep, fp

    def canon(self, item, out) -> dict:
        rep, fp = out
        res = dict(rep.to_report())
        res["fiber_periodic"] = None if fp is None else fp.render()
        return res

    def invariants(self, item, out) -> list[str]:
        F = item["F"]
        rep, fp = out
        bad = []
        if rep.hi - rep.lo != Fraction(2, self.Q):
            bad.append(f"enclosure width {rep.hi - rep.lo} != 2/{self.Q}")
        if rep.exact != item["tau"]:
            bad.append(f"certified {rep.exact}, construction gives {item['tau']}")
        if rep.exact is not None:
            p, q = rep.exact.numerator, rep.exact.denominator
            w = rep.witness
            if w is None or F.iterate_eval(w, q) != w + p:
                bad.append(f"witness {w} does not satisfy F^{q}(w) = w + {p}")
            f = sd.induce(F)
            if fp is None or sd.apply_iter(f, fp, q) != sd.sol_add(fp, sd.sigma(p, fp.depth)):
                bad.append("fiber-periodic point fails f^q(s) = s + sigma(p)")
        elif fp is not None:
            bad.append("fiber-periodic point without a certificate")
        return bad

    def properties(self, idx: list[int]) -> dict:
        items = [self.pool[i % len(self.pool)] for i in idx]
        n = max(len(items), 1)
        props = {"certified_share": sum(it["tau"] is not None for it in items) / n}
        for nb in (2, 3, 4, 5):
            props[f"breakpoints_{nb}_share"] = sum(it["nb"] == nb for it in items) / n
        for den in (6, 8, 12):
            props[f"grid_den_{den}_share"] = sum(it["den"] == den for it in items) / n
        for d in (1, 2, 3, 4):
            props[f"certified_den_{d}_share"] = sum(
                it["tau"] is not None and it["tau"].denominator == d for it in items
            ) / n
        return props

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# orbits: evaluating lifts over solenoid points (the read side)


class Orbits:
    """One seeded induced map over a batch of depth-8 points per job.

    Degrees cycle through 1, 2, 3, 4, 6; maps alternate between genuine
    degree-n lifts and degree-1 lifts embedded at degree n, with offsets
    from -2 to 2.  Every other map is built with a fixed point of its base
    lift at a breakpoint, which gives it a known return p/q = offset/1 and
    fiber-periodic points to classify.  Nothing here builds a new lift per
    job, so ``PLLift.compose`` is never called.
    """

    name = "orbits"
    POOL = 120
    TRACE_JOBS = 100
    BATCH = 32
    RUN_STEPS = 8
    DEGREES = (1, 2, 3, 4, 6)

    def __init__(self, seed: int, tmp_root: Path | None = None) -> None:
        rng = random.Random(f"orbits:{seed}")
        self.pool = []
        for i in range(self.POOL):
            n = self.DEGREES[i % len(self.DEGREES)]
            embedded = (i // len(self.DEGREES)) % 2 == 1
            known = (i // (2 * len(self.DEGREES))) % 2 == 0
            offset = rng.randint(-2, 2)
            base_deg = 1 if embedded else n
            nb = (2 + rng.randrange(3)) * base_deg
            xs = grid_xs(rng, base_deg, nb, 8)
            j = rng.randrange(nb)
            shift = Fraction(0) if known else Fraction(rng.randint(-3, 3), 8)
            F = anchored_lift(rng, base_deg, xs, {j: xs[j] + shift})
            f = sd.induce(F, offset)
            if embedded:
                f = sd.embed_degree(f, n)
            pts = [rand_point(rng) for _ in range(self.BATCH)]
            periodic = []
            if known:
                # F(x*) = x* and k = 0 mod n give f(x*, k) = (x*, k) + sigma(offset)
                for _ in range(2):
                    k = sd.embed_int(n * rng.randrange(FACT_DEPTH // n), DEPTH)
                    periodic.append(sd.canonicalize(xs[j], k))
            self.pool.append({
                "f": f, "pts": pts, "periodic": periodic, "p": offset, "q": 1,
                "degree": n, "embedded": embedded, "known": known,
            })

    def run(self, item):
        f, pts = item["f"], item["pts"]
        divs = sd.divisors(f.degree)
        imgs = [sd.apply(f, s) for s in pts]
        projs = [[sd.project(t, d) for d in divs] for t in imgs]
        cur, dists = pts[0], []
        for _ in range(self.RUN_STEPS):
            nxt = sd.apply_iter(f, cur, 2)
            dists.append(sd.sol_dist(cur, nxt))
            cur = nxt
        rep = sd.check_semiconjugacy(f, pts)
        verdicts = [sd.classify_orbit(f, s, item["p"], item["q"]) for s in item["periodic"]]
        return imgs, projs, dists, rep, verdicts

    def canon(self, item, out) -> dict:
        imgs, projs, dists, rep, verdicts = out
        return {
            "images": stable_digest([t.render() for t in imgs]),
            "projections": stable_digest([[str(c.value) for c in row] for row in projs]),
            "run_distances": [str(d) for d in dists],
            "semiconjugacy": rep.to_report(),
            "verdicts": [_verdict(v) for v in verdicts],
        }

    def invariants(self, item, out) -> list[str]:
        f = item["f"]
        imgs, projs, dists, rep, verdicts = out
        bad = []
        if not rep.exact or rep.max_error != 0:
            bad.append(f"semi-conjugacy not exact: max_error {rep.max_error}")
        if rep.samples != len(item["pts"]):
            bad.append(f"semi-conjugacy saw {rep.samples} samples")
        for s, v in zip(item["periodic"], verdicts):
            if not isinstance(v, sd.FiberPeriodic):
                bad.append(f"constructed periodic point classified as {type(v).__name__}")
            elif sd.apply_iter(f, v.point, v.q) != sd.sol_add(v.point, sd.sigma(v.p, v.point.depth)):
                bad.append("FiberPeriodic point fails f^q(s) = s + sigma(p)")
        for row, t in zip(projs, imgs):
            for c, d in zip(row, sd.divisors(f.degree)):
                if c.modulus != d or not 0 <= c.value < d:
                    bad.append(f"projection {c} out of range at level {d}")
        return bad

    def properties(self, idx: list[int]) -> dict:
        items = [self.pool[i % len(self.pool)] for i in idx]
        n = max(len(items), 1)
        props = {f"degree_{d}_share": sum(it["degree"] == d for it in items) / n for d in self.DEGREES}
        props["embedded_share"] = sum(it["embedded"] for it in items) / n
        props["genuine_share"] = 1 - props["embedded_share"]
        props["known_pq_share"] = sum(it["known"] for it in items) / n
        return props

    def close(self) -> None:
        pass


def _verdict(v) -> dict:
    if isinstance(v, sd.FiberPeriodic):
        return {"kind": "FiberPeriodic", "p": v.p, "q": v.q, "point": v.point.render()}
    if isinstance(v, sd.AsymptoticToFiber):
        return {
            "kind": "AsymptoticToFiber", "p": v.p, "q": v.q,
            "target": v.target.render(), "iterations": v.iterations,
            "distance": str(v.distance),
        }
    return {"kind": type(v).__name__, "reason": getattr(v, "reason", None)}


# ---------------------------------------------------------------------------
# cli: descriptor parsing, formatting, lp_truncate and the density grid


DESCRIPTORS = Path(__file__).resolve().parents[1] / "descriptors"
SUBCOMMANDS = ("rotation", "orbit", "semiconj", "hull", "density")
TOWERS = ((1, 2, 4, 12, 24), (1, 2, 6, 12, 24), (1, 3, 6, 12, 24), (1, 2, 4, 8, 24))


class Cli:
    """In-process invocations of the five subcommands through ``soldyn.cli.main``.

    Subcommands take equal turns.  Inputs are the checked-in descriptors plus
    seeded ones written at set-up: degree-1 PL maps and induced maps of degree
    2-6 (each with a fixed point of the base lift, so ``orbit`` has a target),
    and limit-periodic towers of depth 5.  Analytic inputs where exactness is
    needed end with exit code 1; that outcome is part of the reference.
    """

    name = "cli"
    POOL = 100
    TRACE_JOBS = 50
    ITERS = "20"
    DENSITY_SAMPLES = "600"

    def __init__(self, seed: int, tmp_root: Path) -> None:
        from click.testing import CliRunner

        from soldyn.cli import main

        self.main = main
        self.runner = CliRunner()
        rng = random.Random(f"cli:{seed}")
        self.tmp = tmp_root / f"cli-{os.getpid()}-{seed}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self._count = 0
        checked = {p.stem: str(p) for p in sorted(DESCRIPTORS.glob("*.json"))}
        inputs = {
            "rotation": [checked["halfmap"], checked["rot35_homeo"], checked["fixedpoint_homeo"],
                         checked["golden_analytic"]],
            "orbit": [checked["fixedpoint_homeo"], checked["golden_analytic"]],
            "semiconj": [checked["halfmap"], checked["rot35_homeo"], checked["fixedpoint_homeo"]],
            "hull": [checked["halfmap"], checked["fixedpoint_homeo"], checked["lp_tower4"]],
            "density": [checked["lp_tower4"]],
        }
        self.pool = []
        per_sub = self.POOL // len(SUBCOMMANDS)
        streams = {}
        for sub in SUBCOMMANDS:
            gen = []
            for j in range(per_sub):
                if j % 5 == 0 and j // 5 < len(inputs[sub]):
                    gen.append(inputs[sub][j // 5])
                else:
                    gen.append(self._generate(rng, sub, j))
            streams[sub] = gen
        for j in range(per_sub):
            for sub in SUBCOMMANDS:
                path = streams[sub][j]
                self.pool.append({"sub": sub, "args": self._args(rng, sub, path, j), "input": path})

    def _write(self, obj) -> str:
        self._count += 1
        path = self.tmp / f"d{self._count:04d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def _generate(self, rng: random.Random, sub: str, j: int) -> str:
        if sub == "density" or (sub == "hull" and j % 4 == 3):
            return self._write(self._tower(rng))
        if sub == "orbit":
            return self._write(sd.induce(self._fixed_point_lift(rng, 1), 0).to_descriptor())
        if sub == "rotation" and j % 4 == 0:
            return self._write(self._fixed_point_lift(rng, 1).to_descriptor())
        F = self._fixed_point_lift(rng, (1, 2, 3, 4, 6)[j % 5])
        return self._write(sd.induce(F, rng.randint(-2, 2)).to_descriptor())

    @staticmethod
    def _fixed_point_lift(rng: random.Random, degree: int):
        nb = (2 + rng.randrange(3)) * degree
        xs = grid_xs(rng, degree, nb, 8)
        k = rng.randrange(nb)
        return anchored_lift(rng, degree, xs, {k: xs[k]})

    @staticmethod
    def _tower(rng: random.Random) -> dict:
        # one depth and one top period, so density jobs cost about the same
        tower = rng.choice(TOWERS)
        summands = []
        for j, T in enumerate(tower):
            xs = grid_xs(rng, T, 2 + rng.randrange(2), 4)
            vals = [Fraction(rng.randint(-3, 3), 2 * 4 ** (j + 2)) for _ in xs]
            summands.append(sd.PeriodicPL(T, list(zip(xs, vals))))
        tail = Fraction(3, 4 ** (len(tower) + 1))
        h = sd.lp_build(tower, summands, tail)
        return h.to_descriptor()

    def _args(self, rng: random.Random, sub: str, path: str, j: int) -> list[str]:
        args = [sub, "--input", path]
        if sub in ("rotation", "hull"):
            args += ["--iters", self.ITERS]
        elif sub == "orbit":
            args += ["--iters", "24", "--start", f"{rng.randrange(1, 16)}/16"]
        elif sub == "semiconj":
            args += ["--samples", "40", "--seed", str(rng.randrange(1000))]
        else:
            args += ["--samples", self.DENSITY_SAMPLES, "--format", ("csv", "json")[j % 2]]
        return args

    def run(self, item):
        res = self.runner.invoke(self.main, item["args"])
        exc = None if isinstance(res.exception, SystemExit) else res.exception
        return res.exit_code, res.stdout, exc

    def canon(self, item, out) -> dict:
        code, text, exc = out
        res = {"exit_code": code}
        if exc is not None:
            res["uncaught"] = type(exc).__name__
        if code != 0:
            return res
        sub = item["sub"]
        if sub == "density":
            res["table"] = _density_table(item["args"], text)
        elif sub == "orbit":
            rows = list(_csv_rows(text))
            res["rows"] = len(rows)
            res["trace"] = stable_digest(rows)
            res["last_row"] = rows[-1] if rows else None
        else:
            res.update(json.loads(text))
        return res

    def invariants(self, item, out) -> list[str]:
        code, text, exc = out
        if exc is not None:
            return [f"uncaught {type(exc).__name__}: {exc}"]
        if code not in (0, 1):
            return [f"exit code {code}"]
        if code != 0:
            return []
        sub = item["sub"]
        bad = []
        if sub == "rotation":
            rep = json.loads(text)
            desc = json.loads(Path(item["input"]).read_text(encoding="utf-8"))
            n = desc.get("degree", 1)
            width = Fraction(rep["hi"]) - Fraction(rep["lo"])
            if width != Fraction(2 * n, int(self.ITERS)):
                bad.append(f"enclosure width {width} != 2*{n}/{self.ITERS}")
        elif sub == "semiconj":
            rep = json.loads(text)
            if rep["exact"] is not True or rep["max_error"] != "0":
                bad.append(f"semi-conjugacy not exact: {rep}")
        elif sub == "density":
            for row in _density_table(item["args"], text):
                if Fraction(row["certified_bound"]) < 0:
                    bad.append(f"negative certified bound {row}")
        return bad

    def properties(self, idx: list[int]) -> dict:
        items = [self.pool[i % len(self.pool)] for i in idx]
        n = max(len(items), 1)
        props = {f"{s}_share": sum(it["sub"] == s for it in items) / n for s in SUBCOMMANDS}
        props["checked_in_input_share"] = sum(
            Path(it["input"]).parent == DESCRIPTORS for it in items
        ) / n
        return props

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _csv_rows(text: str):
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    for line in lines[1:]:
        yield dict(zip(header, line.split(",")))


def _density_table(args: list[str], text: str) -> list[dict]:
    """Only the level, period and certified-bound columns are compared."""
    if args[args.index("--format") + 1] == "json":
        obj = json.loads(text)
        return [{"level": str(l), "certified_bound": b} for l, b in zip(obj["levels"], obj["bounds"])]
    return [
        {"level": r["level"], "period": r["period"], "certified_bound": r["certified_bound"]}
        for r in _csv_rows(text)
    ]


WORKLOADS = {w.name: w for w in (Certify, Orbits, Cli)}
