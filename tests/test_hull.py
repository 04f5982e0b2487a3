import json
import random
from fractions import Fraction

import pytest

from soldyn import (
    AnalyticExactUnsupported,
    DepthExceeded,
    K_map,
    LimitPeriodicCertified,
    MixedHulls,
    NotIncreasing,
    Periodic,
    PeriodicPL,
    PLLift,
    QuotientMap,
    SolenoidPoint,
    analytic_new,
    apply,
    check_semiconjugacy,
    circle_map,
    divisors,
    embed_degree,
    embed_int,
    g_apply,
    hull_dist,
    hull_inv,
    hull_mul,
    hull_of,
    induce,
    isotopy_eval,
    leaf_displacement,
    leaf_quotient,
    lp_build,
    lp_hull_level,
    minimal_period,
    periodicity_classify,
    pl_new,
    project,
    quotient_map,
    rotation_lift,
    sigma,
    sol_add,
)
from genutil import (
    rand_embedded, rand_induced, rand_pl_lift, rand_point, rand_tower, run_python
)
from reference import displacement_lift, has_period, reference_quotient, sup_diff

SAW2 = PeriodicPL(2, [(0, 0), (1, Fraction(1, 4))])  # minimal period 2




def test_hull_translate_and_eval():
    h = hull_of(SAW2)
    assert h.period == 2
    neutral = h.translate(0)
    for x in (0, Fraction(1, 3), Fraction(7, 5)):
        assert neutral.eval(x) == SAW2.eval(x)
    assert h.translate(2) == neutral
    hp = h.translate(Fraction(1, 3))
    assert hp.eval(Fraction(1, 6)) == SAW2.eval(Fraction(1, 2))


def test_hull_group_laws():
    h = hull_of(SAW2)
    rng = random.Random(0)
    pts = [h.translate(Fraction(rng.randrange(32), 16)) for _ in range(8)]
    neutral = h.neutral
    for a in pts:
        assert hull_mul(a, neutral) == a
        assert hull_mul(a, hull_inv(a)) == neutral
        for b in pts:
            assert hull_mul(a, b) == hull_mul(b, a)
            for c in pts[:3]:
                assert hull_mul(hull_mul(a, b), c) == hull_mul(a, hull_mul(b, c))
    assert hull_mul(
        h.translate(Fraction(1, 3)), h.translate(Fraction(5, 3))
    ) == neutral


def test_mixed_hulls_rejected():
    other = PeriodicPL(2, [(0, 0), (1, Fraction(1, 8))])
    with pytest.raises(MixedHulls):
        hull_mul(hull_of(SAW2).neutral, hull_of(other).neutral)


def test_hull_parameter_faithful():
    # the translates' sup-distance vanishes exactly on equal parameters
    h = hull_of(SAW2)
    a = h.translate(Fraction(1, 5))
    b = h.translate(Fraction(1, 5) + 2)
    c = h.translate(Fraction(2, 5))

    def func_dist(u, v):
        return sup_diff(h.delta.translate(u.param), h.delta.translate(v.param))

    assert func_dist(a, b) == 0
    assert func_dist(a, c) > 0


def test_K_map_defining_property():
    h = hull_of(SAW2)
    for t in (0, Fraction(1, 7), Fraction(9, 4), Fraction(13, 2)):
        assert K_map(sigma(t), h).param == Fraction(t) % 2


def test_K_map_is_homomorphism():
    h = hull_of(SAW2)
    rng = random.Random(1)
    for _ in range(100):
        s, t = rand_point(rng), rand_point(rng)
        lhs = K_map(sol_add(s, t), h)
        rhs = hull_mul(K_map(s, h), K_map(t, h))
        assert lhs == rhs


def test_K_map_period_one_is_pi1():
    delta = rotation_lift(Fraction(1, 3)).displacement()
    h = hull_of(delta)
    assert h.period == 1
    rng = random.Random(2)
    for _ in range(20):
        s = rand_point(rng)
        assert K_map(s, h).param == project(s, 1).value


def test_quotient_map_rotation_case():
    delta = rotation_lift(Fraction(2, 5)).displacement()
    gm = quotient_map(delta)
    assert gm.period == 1
    hp = hull_of(delta).translate(Fraction(1, 10))
    out = g_apply(gm, hp)
    assert out.param == (Fraction(1, 10) + Fraction(2, 5)) % 1


def test_quotient_map_needs_increasing():
    bad = PeriodicPL(1, [(0, 0), (Fraction(1, 2), Fraction(-3, 4))])
    with pytest.raises(NotIncreasing):
        quotient_map(bad)


def test_g_bijective_monotone_sweep():
    f = rand_induced(random.Random(3), degree=2)
    delta = leaf_displacement(f)
    gm = quotient_map(delta)
    T = gm.period
    grid = [Fraction(i * T, 10_000) for i in range(10_000)]
    prev = None
    for t in grid:
        v = gm.lift.eval(t)
        if prev is not None:
            assert v > prev
        prev = v
    # total increase over one period is exactly T
    assert gm.lift.eval(Fraction(T)) - gm.lift.eval(Fraction(0)) == T


def test_g_apply_at_neutral():
    delta = SAW2
    gm = quotient_map(delta)
    h = hull_of(delta)
    assert g_apply(gm, h.neutral).param == delta.eval(0) % 2


def test_isotopy_endpoints_and_midpoint():
    delta = SAW2
    h = hull_of(delta)
    gm = quotient_map(delta)
    rng = random.Random(4)
    for _ in range(20):
        hp = h.translate(Fraction(rng.randrange(64), 16))
        assert isotopy_eval(delta, 0, hp) == hp
        assert isotopy_eval(delta, 1, hp) == g_apply(gm, hp)
    const = rotation_lift(Fraction(2, 5)).displacement()
    hc = hull_of(const)
    hp = hc.translate(Fraction(1, 7))
    mid = isotopy_eval(const, Fraction(1, 2), hp)
    assert mid.param == (Fraction(1, 7) + Fraction(1, 5)) % 1


def test_semiconjugacy_exact_on_random_maps():
    rng = random.Random(5)
    for _ in range(25):
        degree = rng.choice([1, 2, 3])
        f = rand_induced(rng, degree=degree)
        pts = [rand_point(rng) for _ in range(20)]
        rep = check_semiconjugacy(f, pts)
        assert rep.exact and rep.max_error == 0
        assert degree % rep.period == 0


def test_semiconjugacy_detects_corruption():
    f = induce(pl_new(1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]), 0)
    delta = leaf_displacement(f)
    gm = quotient_map(delta)
    bad = QuotientMap(gm.period, gm.lift.translate(Fraction(1, 7)))
    pts = [rand_point(random.Random(6)) for _ in range(30)]
    rep = check_semiconjugacy(f, pts, quotient=bad)
    assert not rep.exact
    assert rep.max_error >= Fraction(1, 7)


def test_semiconjugacy_report_serialization():
    f = induce(rotation_lift(Fraction(1, 3)), 0)
    rep = check_semiconjugacy(f, [rand_point(random.Random(7))])
    assert rep.to_report() == {
        "max_error": "0",
        "exact": True,
        "samples": 1,
        "period": "1",
    }


def test_semiconjugacy_error_matches_hull_dist_reference():
    # reference: each sample's error through K_map, g_apply and hull_dist on
    # the hull of the Fraction displacement; the report's max_error is their max
    rng = random.Random(14)
    maps = []
    for n in (1, 2, 3, 4, 5, 6):
        genuine, embedded = rand_pl_lift(rng, n), rand_pl_lift(rng, 1)
        for c in range(-2, 3):
            maps += [induce(genuine, c), embed_degree(induce(embedded, c), n)]
    quotients = [leaf_quotient(f) for f in maps]
    nonzero = 0
    for i, (f, g) in enumerate(zip(maps, quotients)):
        hull = hull_of(leaf_displacement(f))
        other = next(q for q in quotients[i + 1:] + quotients[:i] if q.period == g.period)
        shifted = QuotientMap(g.period, g.lift.translate(Fraction(1, 7)))
        pts = [rand_point(rng, den_max=10**6) for _ in range(8)]
        pts += [SolenoidPoint(rng.random(), rand_tower(rng)) for _ in range(8)]
        for q in (g, shifted, other):
            ref = max(
                hull_dist(K_map(apply(f, s), hull), g_apply(q, K_map(s, hull))) for s in pts
            )
            rep = check_semiconjugacy(f, pts, quotient=q)
            assert (rep.max_error, rep.exact) == (ref, ref == 0), (f, q)
            assert (rep.samples, rep.period) == (len(pts), hull.period)
            nonzero += ref > 0
    assert nonzero >= len(maps)


def test_semiconjugacy_checks_depth_and_quotient_period():
    # a degree-5 rotation: T = 1 divides 3!, but the degree does not
    f = induce(pl_new(5, [(0, Fraction(1, 4)), (Fraction(5, 2), Fraction(11, 4))]))
    assert leaf_quotient(f).period == 1
    for x in (Fraction(1, 3), 0.25):
        with pytest.raises(DepthExceeded):
            check_semiconjugacy(f, [SolenoidPoint(x, embed_int(7, 3))])
    assert check_semiconjugacy(f, [SolenoidPoint(Fraction(1, 3), embed_int(7, 5))]).exact
    # an injected quotient of another period is refused before any sample
    g = induce(rotation_lift(Fraction(1, 3)))
    for pts in ([], [rand_point(random.Random(15))]):
        with pytest.raises(MixedHulls):
            check_semiconjugacy(g, pts, quotient=quotient_map(SAW2))


def test_semiconjugacy_checks_survive_optimized_mode():
    code = """
import random
import sys
from fractions import Fraction
from soldyn import *
f = induce(pl_new(1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]))
gm = quotient_map(leaf_displacement(f))
bad = QuotientMap(gm.period, gm.lift.translate(Fraction(1, 7)))
rng = random.Random(6)
pts = [SolenoidPoint(Fraction(rng.randrange(9), 9), embed_int(rng.randrange(720), 6))
       for _ in range(30)]
rep = check_semiconjugacy(f, pts, quotient=bad)
detected = rep.exact is False and rep.max_error >= Fraction(1, 7)
f5 = induce(pl_new(5, [(0, Fraction(1, 4)), (Fraction(5, 2), Fraction(11, 4))]))
try:
    check_semiconjugacy(f5, [SolenoidPoint(Fraction(1, 3), embed_int(7, 3))])
    depth = "accepted"
except DepthExceeded:
    depth = "DepthExceeded"
print(detected, depth, sys.flags.optimize)
"""
    res = run_python("-O", "-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "DepthExceeded", "1"]


def tri(T, amp):
    return PeriodicPL(T, [(0, 0), (Fraction(T, 2), Fraction(amp))])


def test_periodicity_classify_cases():
    f = rand_induced(random.Random(8), degree=4)
    verdict = periodicity_classify(f)
    assert isinstance(verdict, Periodic)
    assert 4 % verdict.period == 0

    h = lp_build((1, 2, 6), [tri(1, "1/4"), tri(2, "1/16"), tri(6, "1/64")])
    v = periodicity_classify(h)
    assert isinstance(v, LimitPeriodicCertified)
    assert v.tower == (1, 2, 6)
    assert v.bounds[-1] == 0


def test_induced_hull_is_circle_never_higher_torus():
    # enforced by construction: any induced map classifies as Periodic
    rng = random.Random(10)
    for degree in (1, 2, 3, 4, 6):
        assert isinstance(periodicity_classify(rand_induced(rng, degree)), Periodic)
        assert isinstance(periodicity_classify(rand_embedded(rng, degree)), Periodic)


def test_lp_hull_level():
    h = lp_build((1, 2), [tri(1, "1/4"), tri(2, "1/16")], tail_bound="1/48")
    hull1, b1 = lp_hull_level(h, 1)
    assert hull1.period == 1 and b1 == Fraction(1, 16) + Fraction(1, 48)
    hull2, b2 = lp_hull_level(h, 2)
    assert hull2.period == 2 and b2 == Fraction(1, 48)


def test_quotient_rotation_matches_leafwise_enclosures():
    # the quotient dynamics g rotates by the same translation number as f
    from soldyn import translation_enclosure

    f = induce(pl_new(1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]), 0)
    gm = quotient_map(leaf_displacement(f))
    for q in (5, 20, 80):
        eg = translation_enclosure(gm.lift, q)
        ef = translation_enclosure(f.leaf_lift(), q)
        assert eg.lo <= ef.hi and ef.lo <= eg.hi
    assert (eg.lo, eg.hi) == (ef.lo, ef.hi)  # degree 1: identical routes


def test_semiconjugacy_is_commuting_diagram_at_period():
    # independent route: K after f equals the covered level-T circle map
    rng = random.Random(11)
    f = rand_induced(rng, degree=3)
    delta = leaf_displacement(f)
    h = hull_of(delta)
    gm = quotient_map(delta)
    for _ in range(30):
        s = rand_point(rng)
        lhs = K_map(apply(f, s), h).param
        rhs = g_apply(gm, K_map(s, h)).param
        assert lhs == rhs


def test_leaf_quotient_matches_displacement_reference():
    # the leaf lift's period search and cut, and the same search on a bare
    # delta, against `reference_quotient`; descend is checked on every candidate T
    rng = random.Random(12)
    periods = set()
    for n in (1, 2, 3, 4, 6, 12):
        maps = [rand_induced(rng, n) for _ in range(4)]
        maps += [embed_degree(rand_induced(rng, d), n) for d in divisors(n)]
        rot = rotation_lift(Fraction(rng.randrange(64), 16), n)
        maps += [induce(rot, c) for c in range(-2, 3)]
        maps += [induce(rand_induced(rng, n).base, c) for c in range(-2, 3)]
        for f in maps:
            delta = leaf_displacement(f)
            T, ref = reference_quotient(delta, n)
            for g in (leaf_quotient(f), quotient_map(delta)):
                assert g.period == T, f
                assert (g.lift.degree, g.lift.xs, g.lift.ys, g.lift.slopes) == (
                    ref.degree, ref.xs, ref.ys, ref.slopes
                ), f
            assert minimal_period(delta) == T, f
            F = f.leaf_lift()
            assert F.descend(0) is None and F.descend(-n) is None
            for t in range(1, 2 * n + 1):
                if n % t or not has_period(delta, t):
                    assert F.descend(t) is None, (f, t)
            assert embed_degree(induce(g.lift), n).base.descend(T) == g.lift
            periods.add((n, T))
    assert {(n, n) for n in (2, 3, 4, 6, 12)} <= periods and (12, 4) in periods


def test_leaf_quotient_never_factors_the_degree(tmp_path):
    # degree 10^30: trial division up to sqrt(n) would not finish, so the
    # periods 1, n/2 and n must come from the leaf lift's slope changes
    n, half = 10**30, 10**30 // 2
    bumps = {
        1: [(0, Fraction(1, 2))],
        half: [(0, 0), (Fraction(1, 2), 1), (half, half), (half + Fraction(1, 2), half + 1)],
        n: [(0, 0), (Fraction(1, 2), 1)],
    }
    maps = {T: induce(pl_new(n, bps), 1) for T, bps in bumps.items()}
    for T, f in maps.items():
        path = tmp_path / f"deg30_{len(bumps[T])}.json"
        path.write_text(json.dumps(f.to_descriptor()), encoding="utf-8")
        res = run_python("-m", "soldyn", "semiconj", "--input", str(path),
                         "--depth", "125", "--samples", "5")
        assert res.returncode == 0, res.stderr
        rep = json.loads(res.stdout)
        assert rep["period"] == str(T) and rep["exact"] is True, rep
    # in process only after the subprocesses proved it terminates
    for T, f in maps.items():
        g, F = leaf_quotient(f), f.leaf_lift()
        assert g.period == T and g.lift.degree == T
        for x in (0, Fraction(1, 3), Fraction(1, 2), half - 1, half + Fraction(1, 4), n - 1):
            assert g.lift.eval(x) == F.eval(x), (T, x)


def test_displacement_lift_needs_a_period_dividing_the_stored_one():
    assert displacement_lift(SAW2, 2) == PLLift(2, [(0, 0), (1, Fraction(5, 4))])
    for T in (1, 4):  # 1 is no period of SAW2 and 4 does not divide 2
        with pytest.raises(ValueError, match="not a period"):
            displacement_lift(SAW2, T)


def test_bare_delta_period_search_never_factors_the_stored_period():
    # stored periods 10^30 and the prime 2^61 - 1: trial division up to the
    # square root would not finish, so the period must come from the slope changes
    code = """
from soldyn import PeriodicPL, hull_of, minimal_period, periodicity_classify, quotient_map
for P in (10**30, 2**61 - 1):
    for bps, T in (([(0, 0), (1, "1/16")], P), ([(0, "1/8")], 1)):
        delta = PeriodicPL(P, bps)
        got = (hull_of(delta).period, minimal_period(delta), quotient_map(delta).period,
               periodicity_classify(delta).period)
        print(got == (T,) * 4)
"""
    res = run_python("-c", code, timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True"] * 4


def test_analytic_maps_have_no_exact_quotient():
    f = induce(analytic_new(0.3, [(0.05, 2.0)], 2), -1)
    with pytest.raises(AnalyticExactUnsupported):
        circle_map(f, 2)
    with pytest.raises(AnalyticExactUnsupported):
        periodicity_classify(f)
    with pytest.raises(AnalyticExactUnsupported):
        check_semiconjugacy(f, [rand_point(random.Random(13))])
