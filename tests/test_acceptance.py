"""Acceptance suite: one end-to-end criterion per core guarantee.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
Randomness is seeded, so the checks are reproducible byte for byte.
"""
import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, isqrt

import pytest
from click.testing import CliRunner

from soldyn import (
    AsymptoticToFiber,
    FiberPeriodic,
    K_map,
    PeriodicPL,
    QuotientMap,
    SolenoidPoint,
    analytic_new,
    apply,
    apply_iter,
    certify_rational,
    check_semiconjugacy,
    circle_map,
    classify_orbit,
    cover_eval,
    divisors,
    embed_int,
    enclosure_sequence,
    find_fiber_periodic,
    hull_inv,
    hull_mul,
    hull_of,
    induce,
    leaf_displacement,
    lp_build,
    lp_truncate,
    pf_add,
    pf_dist,
    pf_neg,
    pl_new,
    project,
    quotient_map,
    rotation_lift,
    rotation_report,
    sigma,
    sol_add,
    sol_dist,
    translation_enclosure,
)
import golden_corpus as gc
from genutil import rand_embedded, rand_induced, rand_point, rand_tower

HALFMAP = pl_new(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
FIXEDPOINT = pl_new(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])


@contextmanager
def criterion(num: int, label: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"criterion {num:2d} [{label}]: PASS ({time.time() - t0:.1f}s)")


def test_criterion_1_profinite_group_laws():
    with criterion(1, "profinite group laws"):
        # exhaustive at depth 3: the 6 tower classes
        pts = [embed_int(t, 3) for t in range(6)]
        assert len({p.residues for p in pts}) == 6
        zero3 = embed_int(0, 3)
        for a, b, c in itertools.product(pts, repeat=3):
            assert pf_add(pf_add(a, b), c) == pf_add(a, pf_add(b, c))
        for a, b in itertools.product(pts, repeat=2):
            assert pf_add(a, b) == pf_add(b, a)
        for a in pts:
            assert pf_add(a, zero3) == a
            assert pf_add(a, pf_neg(a)) == zero3

        # randomized at depth 8, 10^4 cases, with the residue homomorphism
        rng = random.Random(101)
        zero8 = embed_int(0, 8)
        top = factorial(8)
        moduli = [1, 2, 3, 4, 6, 8, 12, 24, 120, 720, 5040, top]
        for _ in range(10_000):
            a = embed_int(rng.randrange(top), 8)
            b = embed_int(rng.randrange(top), 8)
            c = embed_int(rng.randrange(top), 8)
            assert pf_add(pf_add(a, b), c) == pf_add(a, pf_add(b, c))
            assert pf_add(a, b) == pf_add(b, a)
            assert pf_add(a, zero8) == a
            assert a - a == zero8
            n = moduli[rng.randrange(len(moduli))]
            assert pf_add(a, b).residue(n) == (a.residue(n) + b.residue(n)) % n
        # ultrametric spot check rides along
        a, b, c = (embed_int(rng.randrange(top), 8) for _ in range(3))
        assert pf_dist(a, c) <= max(pf_dist(a, b), pf_dist(b, c))


def test_criterion_2_commuting_diagram():
    with criterion(2, "commuting diagram at every divisor level"):
        rng = random.Random(202)
        degrees = (1, 2, 3, 4, 6)
        total_maps = 0
        for n in degrees:
            points = [rand_point(rng, den_max=16) for _ in range(1000)]
            for _ in range(20):
                f = rand_embedded(rng, n)  # 1-periodic displacement at degree n
                total_maps += 1
                maps = {d: circle_map(f, d) for d in divisors(n)}
                for s in points:
                    t = apply(f, s)
                    for d, fd in maps.items():
                        assert project(t, d) == fd(project(s, d))
        assert total_maps == 100


def test_criterion_3_equivariance():
    with criterion(3, "lift equivariance under the deck action"):
        rng = random.Random(303)
        checks = 0
        for i in range(20):
            degree = (1, 2, 3, 4, 6)[i % 5]
            f = rand_induced(rng, degree=degree)
            for _ in range(500):
                x = Fraction(rng.randint(-400, 400), 16)
                k = embed_int(rng.randrange(factorial(8)), 8)
                t = rng.randint(-30, 30)
                k_shift = k - embed_int(t, 8)
                assert cover_eval(f, x + t, k_shift) == cover_eval(f, x, k) + t
                checks += 1
        assert checks == 10_000


def test_criterion_4_rotation_enclosures():
    with criterion(4, "rotation enclosures, exact and analytic"):
        alpha = Fraction(3, 5)
        F = rotation_lift(alpha)
        Q = 10_000
        for enc in enclosure_sequence(F, Q):
            assert enc.width == Fraction(2, enc.iters)
            assert enc.lo <= alpha <= enc.hi
        rep = rotation_report(F, 100)
        assert rep.exact == alpha
        assert rep.witness is not None
        assert F.iterate_eval(rep.witness, 5) == rep.witness + 3

        # golden mean, binary64 family
        G = analytic_new((math.sqrt(5) - 1) / 2)
        enc = translation_enclosure(G, Q)
        assert enc.width <= Fraction(2, 10**4)
        # independent reference: integer square root to 30 digits
        ref = Fraction(isqrt(5 * 10**60) - 10**30, 2 * 10**30)
        slack = Fraction(1, 10**10)
        assert enc.lo - slack <= ref <= enc.hi + slack


def test_criterion_5_fiber_periodicity():
    with criterion(5, "fiber-periodic point construction"):
        half = induce(HALFMAP, 0)
        s = find_fiber_periodic(half, 1, 2)
        assert apply_iter(half, s, 2) == sol_add(s, sigma(1))

        rot = induce(rotation_lift(Fraction(3, 5)), 0)
        rng = random.Random(505)
        for _ in range(1000):
            pt = rand_point(rng)
            assert apply_iter(rot, pt, 5) == sol_add(pt, sigma(3))


def test_criterion_6_asymptotics():
    with criterion(6, "orbits asymptotic to a fiber"):
        f = induce(FIXEDPOINT, 0)
        tol = Fraction(1, 10**6)
        rng = random.Random(606)
        # starts in [1/2, 1): inside the segment contracting onto the fixed
        # point, where the truncated metric decreases strictly step by step
        # (below 1/2 the level-1 arc still wraps through 0 and the distance
        # gains a 2^-M sliver per step while the orbit climbs)
        for _ in range(100):
            den = rng.randint(2, 64)
            num = rng.randint((den + 1) // 2, den - 1)
            start = SolenoidPoint(Fraction(num, den), rand_tower(rng))
            v = classify_orbit(f, start, 0, 1, max_iters=10_000, tol=tol,
                               collect_trace=True)
            assert isinstance(v, AsymptoticToFiber)
            assert v.iterations <= 10_000
            assert v.distance < tol
            dists = [d for _, d in v.trace]
            assert all(a > b for a, b in zip(dists, dists[1:]))
        # classification itself holds from any non-periodic start
        for _ in range(20):
            den = rng.randint(2, 64)
            start = SolenoidPoint(Fraction(1, den), rand_tower(rng))
            v = classify_orbit(f, start, 0, 1, max_iters=10_000, tol=tol)
            assert isinstance(v, AsymptoticToFiber)
            assert v.distance < tol


def test_criterion_7_semiconjugacy():
    with criterion(7, "semi-conjugacy K o f = g o K"):
        rng = random.Random(707)
        for i in range(100):
            degree = (1, 2, 3)[i % 3]
            f = rand_induced(rng, degree=degree)
            pts = [rand_point(rng) for _ in range(100)]
            rep = check_semiconjugacy(f, pts)
            assert rep.exact and rep.max_error == 0

        # injected fault: parameter shift by 1/7 must be detected
        f = induce(FIXEDPOINT, 0)
        delta = leaf_displacement(f)
        gm = quotient_map(delta)
        bad = QuotientMap(gm.period, gm.lift.translate(Fraction(1, 7)))
        pts = [rand_point(rng) for _ in range(100)]
        rep = check_semiconjugacy(f, pts, quotient=bad)
        assert not rep.exact
        assert rep.max_error >= Fraction(1, 7)


def test_criterion_8_hull_group_and_K():
    with criterion(8, "hull group laws and K homomorphism"):
        delta = PeriodicPL(2, [(0, 0), (Fraction(1, 2), Fraction(1, 4)),
                               (1, 0), (Fraction(3, 2), Fraction(-1, 8))])
        h = hull_of(delta)
        assert h.period == 2
        rng = random.Random(808)
        for _ in range(1000):
            s, t = rand_point(rng), rand_point(rng)
            assert K_map(sol_add(s, t), h) == hull_mul(K_map(s, h), K_map(t, h))
        params = [Fraction(rng.randrange(64), 16) for _ in range(10)]
        pts = [h.translate(t) for t in params]
        for a, b in itertools.product(pts, repeat=2):
            assert hull_mul(a, b) == hull_mul(b, a)
        for a, b, c in itertools.product(pts[:6], repeat=3):
            assert hull_mul(hull_mul(a, b), c) == hull_mul(a, hull_mul(b, c))
        for a in pts:
            assert hull_mul(a, h.neutral) == a
            assert hull_mul(a, hull_inv(a)) == h.neutral


def test_criterion_9_density_truncation():
    with criterion(9, "limit-periodic truncation bounds"):
        tower = (1, 2, 6, 24)
        summands = [
            PeriodicPL(T, [(0, 0), (Fraction(T, 2), Fraction(1, 4**j))])
            for j, T in enumerate(tower, start=1)
        ]
        h = lp_build(tower, summands, tail_bound=Fraction(1, 3 * 4**4))
        grid = [Fraction(i * 24, 10_000) for i in range(10_000)]
        gaps = []
        for j in range(1, 5):
            trunc, bound = lp_truncate(h, j)
            assert bound == Fraction(1, 3 * 4**j)
            lift = trunc.base
            gap = max(abs(h.eval(x) - lift.eval(x)) for x in grid)
            assert gap <= bound
            gaps.append(gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        exact = h.sup_gaps()
        assert all(s <= e <= h.tail_from(j) for j, s, e in zip(range(1, 5), gaps, exact))
        assert all(a > b for a, b in zip(exact, exact[1:]))


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism"):
        runner = CliRunner()
        golden = json.loads(gc.CRITERION10_PATH.read_text(encoding="utf-8"))
        assert len(golden) == len(gc.CRITERION10_JOBS)
        for i, job in enumerate(gc.CRITERION10_JOBS):
            cmd = job[0]
            outputs = []
            for run in (0, 1):
                out = tmp_path / f"{cmd}_{i}_{run}.out"
                res = gc.criterion10_invoke(runner, job, out)
                assert res.exit_code == 0, f"{cmd}: {res.output}"
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{cmd} output not reproducible"
            assert outputs[0] == golden[i]["output"].encode("utf-8"), f"{cmd} differs from golden"
