"""Per-call timings of single layer functions on fixed seeded inputs.

The inputs come from a fixed seed, independent of the workload seed, so the
numbers compare across runs and commits.  Each function is timed over a
batch of calls, the batch is repeated, and the median batch gives the
per-call time in microseconds.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from soldyn import (
    PeriodicPL,
    apply,
    canonicalize,
    check_semiconjugacy,
    classify_orbit,
    embed_int,
    induce,
    lp_build,
    lp_truncate,
    pf_add,
    project,
    rotation_report,
    sol_dist,
)

from workloads import FACT_DEPTH, DEPTH, anchored_lift, grid_xs, rand_point

MICRO_SEED = 20170401
REPEATS = 5


def _cases(rng: random.Random):
    """(metric name, callable, calls per batch) for each timed function."""
    towers = [embed_int(rng.randrange(FACT_DEPTH), DEPTH) for _ in range(64)]
    ints = [rng.randrange(-10**6, 10**6) for _ in range(64)]
    pts = [rand_point(rng) for _ in range(100)]
    xs_off = [Fraction(rng.randrange(-64, 64), rng.randint(1, 32)) for _ in range(64)]
    F3 = anchored_lift(rng, 1, grid_xs(rng, 1, 3, 8), {0: Fraction(1, 3)})
    G3 = anchored_lift(rng, 1, grid_xs(rng, 1, 3, 8), {1: Fraction(3, 5)})
    xs_eval = [Fraction(rng.randrange(-512, 512), rng.randint(1, 64)) for _ in range(64)]
    fixed = grid_xs(rng, 1, 3, 8)
    Fp = anchored_lift(rng, 1, fixed, {1: fixed[1]})
    f_fixed = induce(Fp, 0)
    f_apply = induce(anchored_lift(rng, 2, grid_xs(rng, 2, 5, 8), {2: Fraction(5, 4)}), 1)
    start = pts[0]
    # certifies 1/2 at the second denominator of the sweep
    half = anchored_lift(rng, 1, [Fraction(0), Fraction(1, 4), Fraction(1, 2)], {0: Fraction(1, 2), 2: Fraction(1)})
    tower = [1, 2, 6, 24]
    summands = [
        PeriodicPL(T, [(x, Fraction(rng.randint(-3, 3), 2 * 4 ** (j + 2))) for x in grid_xs(rng, T, 3, 4)])
        for j, T in enumerate(tower)
    ]
    h = lp_build(tower, summands, Fraction(1, 1024))

    def loop(fn, args):
        def run():
            for a in args:
                fn(*a)
        return run

    return [
        ("micro.profinite.embed_int.us", loop(embed_int, [(t, DEPTH) for t in ints]), len(ints)),
        ("micro.profinite.pf_add.us", loop(pf_add, list(zip(towers, towers[1:] + towers[:1]))), len(towers)),
        ("micro.solenoid.canonicalize.us", loop(canonicalize, list(zip(xs_off, towers))), len(towers)),
        ("micro.solenoid.project.us", loop(project, [(s, 24) for s in pts[:64]]), 64),
        ("micro.solenoid.sol_dist.us", loop(sol_dist, list(zip(pts[:32], pts[32:64]))), 32),
        ("micro.circlemaps.PLLift.eval.us", loop(F3.eval, [(x,) for x in xs_eval]), len(xs_eval)),
        ("micro.circlemaps.PLLift.compose.us", loop(F3.compose, [(G3,)] * 8), 8),
        ("micro.circlemaps.PLLift.inverse.us", loop(F3.inverse, [()] * 16), 16),
        ("micro.circlemaps.PLLift.power64.us", loop(F3.power, [(64,)]), 1),
        ("micro.induced.apply.us", loop(apply, [(f_apply, s) for s in pts[:64]]), 64),
        ("micro.dynamics.rotation_report.us", loop(rotation_report, [(half, 40)] * 2), 2),
        ("micro.dynamics.classify_orbit.us", loop(classify_orbit, [(f_fixed, start, 0, 1, 400)]), 1),
        ("micro.hull.check_semiconjugacy.us", loop(check_semiconjugacy, [(f_apply, pts)]), 1),
        ("micro.induced.lp_truncate.us", loop(lp_truncate, [(h, 4)] * 2), 2),
    ]


def run_micro(repeats: int = REPEATS) -> dict[str, float]:
    out = {}
    for name, fn, per_batch in _cases(random.Random(MICRO_SEED)):
        fn()  # warm-up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) / per_batch * 1e6
    return out
