import math
import os
import random
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from soldyn import (
    AsymptoticToFiber,
    DegreeMismatch,
    FiberPeriodic,
    Inconclusive,
    NoSuchOrbit,
    analytic_new,
    apply_iter,
    canonicalize,
    certify_rational,
    classify_orbit,
    embed_degree,
    embed_int,
    enclosure_sequence,
    fiber_target,
    find_fiber_periodic,
    identity_lift,
    induce,
    pl_new,
    rational_certificate,
    rotation_lift,
    rotation_report,
    sigma,
    sol_add,
    sol_dist,
    translation_enclosure,
    translation_homeo,
)
from soldyn import SolenoidPoint, plkernel
from soldyn import dynamics as dyn
from genutil import (
    count_compositions, degree1_scope, rand_fraction, rand_induced, rand_pl_lift, rand_point,
    run_python,
)
from reference import RefLift, leftmost_return, reference_sweep

HALFMAP = pl_new(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
FIXEDPOINT = pl_new(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])


def test_enclosure_rigid_rotation():
    alpha = Fraction(3, 5)
    F = rotation_lift(alpha)
    for q in (1, 2, 7, 100):
        enc = translation_enclosure(F, q, 0)
        assert enc.lo == alpha - Fraction(1, q)
        assert enc.hi == alpha + Fraction(1, q)
        assert enc.width == Fraction(2, q)


def test_enclosure_identity_contains_zero():
    enc = translation_enclosure(identity_lift(1), 10, Fraction(1, 3))
    assert enc.lo <= 0 <= enc.hi


def test_enclosure_halfmap_example():
    enc2 = translation_enclosure(HALFMAP, 2, 0)
    assert (enc2.lo, enc2.hi) == (Fraction(0), Fraction(1))
    enc10 = translation_enclosure(HALFMAP, 10, 0)
    assert (enc10.lo, enc10.hi) == (Fraction(2, 5), Fraction(3, 5))


def test_enclosure_sequence_matches_single_calls():
    rng = random.Random(0)
    F = rand_pl_lift(rng)
    seq = list(enclosure_sequence(F, 20))
    for q in (1, 5, 20):
        enc = translation_enclosure(F, q)
        assert (seq[q - 1].lo, seq[q - 1].hi) == (enc.lo, enc.hi)


def test_enclosure_sequence_walks_the_exact_orbit_from_a_binary64_start():
    # a PL lift is iterated from Fraction(0.3), as translation_enclosure does
    F = pl_new(1, [(0, Fraction(1, 3)), (Fraction(1, 5), Fraction(3, 5)), (Fraction(2, 3), 1)])
    for q, enc in enumerate(enclosure_sequence(F, 60, 0.3), start=1):
        want = translation_enclosure(F, q, 0.3)
        assert (enc.lo, enc.hi) == (want.lo, want.hi), q


def test_enclosures_intersect_across_budgets_and_starts():
    rng = random.Random(1)
    for _ in range(25):
        F = rand_pl_lift(rng)
        q = rng.randint(1, 30)
        e1 = translation_enclosure(F, q, 0)
        e2 = translation_enclosure(F, 2 * q, 0)
        assert e1.lo <= e2.hi and e2.lo <= e1.hi
        x0 = Fraction(rng.randrange(16), 16)
        e3 = translation_enclosure(F, q, x0)
        assert e1.lo <= e3.hi and e3.lo <= e1.hi


def test_enclosure_conjugation_invariance():
    rng = random.Random(2)
    for _ in range(10):
        F = rand_pl_lift(rng)
        g = rand_pl_lift(rng)
        conj = g.compose(F).compose(g.inverse())
        for q in (5, 17):
            e1 = translation_enclosure(F, q)
            e2 = translation_enclosure(conj, q)
            assert e1.lo <= e2.hi and e2.lo <= e1.hi


def test_enclosure_shifts_by_integer_translation():
    rng = random.Random(3)
    F = rand_pl_lift(rng)
    G = F.translate(1)
    for q in (3, 11):
        e = translation_enclosure(F, q)
        e1 = translation_enclosure(G, q)
        assert (e1.lo, e1.hi) == (e.lo + 1, e.hi + 1)


def test_certify_rational_examples():
    assert certify_rational(rotation_lift(Fraction(3, 5)), 3, 5) == 0
    assert certify_rational(HALFMAP, 1, 2) == 0
    assert certify_rational(rotation_lift(Fraction(2, 3)), 1, 2) is None
    with pytest.raises(ValueError):
        certify_rational(HALFMAP, 2, 4)


def test_certify_matches_brute_force_grid():
    # cross-check both directions on a rational grid of denominators <= 64
    rng = random.Random(4)
    grid = sorted({Fraction(p, q) for q in range(1, 65) for p in range(q)})

    def brute(F, p, q):
        return [x for x in grid if F.iterate_eval(x, q) == x + p]

    maps = [rotation_lift(Fraction(1, 3)), HALFMAP, rand_pl_lift(rng), FIXEDPOINT]
    for F in maps:
        for p, q in ((0, 1), (1, 2), (1, 3), (2, 3)):
            wit = certify_rational(F, p, q)
            hits = brute(F, p, q)
            if wit is not None:
                assert F.iterate_eval(wit, q) == wit + p
                if hits:
                    assert wit == hits[0]  # leftmost
            else:
                assert not hits


def test_rational_certificate_sweep():
    F = rotation_lift(Fraction(3, 5))
    enc = translation_enclosure(F, 11)
    found = rational_certificate(F, enc.lo, enc.hi, 11)
    assert found is not None
    val, wit = found
    assert val == Fraction(3, 5) and wit == 0
    # golden-mean-like PL map that certifies nothing up to denominator 10
    G = rand_pl_lift(random.Random(12), n_bps=4, den=7)
    enc = translation_enclosure(G, 40)
    found = rational_certificate(G, enc.lo, enc.hi, 10)
    if found is not None:
        val, wit = found
        assert G.iterate_eval(wit, val.denominator) == wit + val.numerator


def test_rational_certificate_without_denominators_finds_nothing():
    # max_den < 1 leaves no candidate: None at degree 1, where the orbit walk
    # that brackets tau needs a step, and at degree 2, an empty sweep; the
    # same lifts certify 1/2 from max_den 2
    for F in (HALFMAP, embed_degree(induce(HALFMAP), 2).base):
        assert rational_certificate(F, Fraction(0), Fraction(1), 2)[0] == Fraction(1, 2)
        for max_den in (0, -3):
            assert rational_certificate(F, Fraction(0), Fraction(1), max_den) is None


def test_rotation_report_certifies():
    rep = rotation_report(rotation_lift(Fraction(3, 5)), 100)
    assert rep.exact == Fraction(3, 5)
    assert rep.witness == 0
    rep = rotation_report(HALFMAP, 10)
    assert rep.exact == Fraction(1, 2)
    d = rep.to_report()
    assert d == {"lo": "2/5", "hi": "3/5", "exact": "1/2", "witness": "0"}


def test_rotation_report_analytic_no_certificate():
    F = analytic_new((math.sqrt(5) - 1) / 2)
    rep = rotation_report(F, 1000)
    assert rep.exact is None
    assert rep.lo <= Fraction(math.sqrt(5) - 1) / 2 <= rep.hi


def test_each_certification_entry_point_refuses_an_analytic_lift():
    from soldyn import AnalyticExactUnsupported

    F = analytic_new((math.sqrt(5) - 1) / 2)
    f = induce(F)
    s = SolenoidPoint(Fraction(1, 3), embed_int(5, 8))
    calls = {
        "certification needs a PL lift": (
            lambda: certify_rational(F, 1, 2),
            lambda: rational_certificate(F, Fraction(0), Fraction(1), 5),
        ),
        "fiber-periodic search needs a PL lift": (lambda: find_fiber_periodic(f, 1, 2),),
        "fiber targets need a PL base": (lambda: fiber_target(f, s, 1, 2),),
    }
    for message, entries in calls.items():
        for call in entries:
            with pytest.raises(AnalyticExactUnsupported, match=message):
                call()


def test_find_fiber_periodic_examples():
    rot = induce(rotation_lift(Fraction(3, 5)), 0)
    assert find_fiber_periodic(rot, 3, 5) == sigma(0)

    half = induce(HALFMAP, 0)
    s = find_fiber_periodic(half, 1, 2)
    assert apply_iter(half, s, 2) == sol_add(s, sigma(1))

    trans = translation_homeo(1)
    t = find_fiber_periodic(trans, 1, 1)
    assert apply_iter(trans, t, 1) == sol_add(t, sigma(1))

    with pytest.raises(NoSuchOrbit):
        find_fiber_periodic(rot, 1, 2)


def test_find_fiber_periodic_degree_n():
    rng = random.Random(5)
    f = rand_induced(rng, degree=2)
    enc = translation_enclosure(f.leaf_lift(), 60)
    found = rational_certificate(f.leaf_lift(), enc.lo, enc.hi, 12)
    if found is None:
        pytest.skip("random map not rational up to denominator 12")
    val, _ = found
    s = find_fiber_periodic(f, val.numerator, val.denominator)
    assert apply_iter(f, s, val.denominator) == sol_add(
        s, sigma(val.numerator, s.depth)
    )


def test_classify_rigid_rotation_fiber_periodic():
    rot = induce(rotation_lift(Fraction(3, 5)), 0)
    rng = random.Random(6)
    for _ in range(20):
        s = rand_point(rng)
        v = classify_orbit(rot, s, 3, 5)
        assert isinstance(v, FiberPeriodic)
        assert apply_iter(rot, v.point, 5) == sol_add(v.point, sigma(3))


def test_classify_asymptotic_example():
    f = induce(FIXEDPOINT, 0)
    v = classify_orbit(
        f, sigma(Fraction(1, 2)), 0, 1, max_iters=10_000, tol=Fraction(1, 10**6),
        collect_trace=True,
    )
    assert isinstance(v, AsymptoticToFiber)
    assert v.target == sigma(1)  # (0, embed(1))
    assert v.distance < Fraction(1, 10**6)
    dists = [d for _, d in v.trace]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_classify_tol_zero_inconclusive():
    f = induce(FIXEDPOINT, 0)
    v = classify_orbit(f, sigma(Fraction(1, 2)), 0, 1, max_iters=200, tol=Fraction(0))
    assert isinstance(v, Inconclusive)


def test_classify_never_wrong_verdict():
    # rho(f) = 1/2 here, so asking about 0/1 must not produce a verdict
    f = induce(HALFMAP, 0)
    v = classify_orbit(f, sigma(Fraction(1, 3)), 0, 1, max_iters=50)
    assert isinstance(v, Inconclusive)


def test_fiber_target_matches_classification():
    f = induce(FIXEDPOINT, 0)
    s = sigma(Fraction(1, 4))
    t = fiber_target(f, s, 0, 1)
    v = classify_orbit(f, s, 0, 1, max_iters=10_000)
    assert isinstance(v, AsymptoticToFiber) and v.target == t
    # fiber-periodic starts are their own target
    assert fiber_target(f, sigma(0), 0, 1) == sigma(0)


def test_fiber_target_downhill():
    # reflected dynamics: F(x) <= x, orbits fall to the fixed point below
    F = pl_new(1, [(0, 0), (Fraction(1, 2), Fraction(1, 4))])
    f = induce(F, 0)
    s = sigma(Fraction(1, 2))
    t = fiber_target(f, s, 0, 1)
    assert t == sigma(0)
    v = classify_orbit(f, s, 0, 1, max_iters=10_000)
    assert isinstance(v, AsymptoticToFiber) and v.target == sigma(0)


def test_classify_orbit_binary64_start_has_exact_target():
    # the return map's fixed point is found from the start taken exactly, so
    # a float start gets the exact target 1/4 (an interior zero of F - id)
    f = induce(pl_new(1, [(0, Fraction(1, 8)), (Fraction(1, 2), Fraction(3, 8))]), 0)
    for x0, iterations in ((0.2, 16), (0.7, 22)):
        v = classify_orbit(f, SolenoidPoint(x0, embed_int(0)), 0, 1)
        assert isinstance(v, AsymptoticToFiber)
        assert v.target == sigma(Fraction(1, 4)) and type(v.target.x) is Fraction
        assert v.iterations == iterations and v.distance < Fraction(1, 10**6)


def _window_nearest_zero(G, p, x0, upward):
    """The window scan that the table scan replaced: g = G - id - p at every
    breakpoint of the period beyond x0, the nearest zero strictly beyond x0
    in the given direction (the near end of a flat zero piece), or None."""
    n = G.degree
    lo, hi = (x0, x0 + n) if upward else (x0 - n, x0)
    pts = {lo, hi}
    for x in G.xs:
        j0 = math.floor((lo - x) / n)
        for j in (j0, j0 + 1, j0 + 2):
            z = x + j * n
            if lo <= z <= hi:
                pts.add(z)
    pts = sorted(pts)
    vals = [G.eval(z) - z - p for z in pts]
    indices = range(len(pts) - 1)
    if not upward:
        indices = reversed(indices)
    for i in indices:
        a, b, va, vb = pts[i], pts[i + 1], vals[i], vals[i + 1]
        if va * vb > 0:
            continue
        near, far = (a, b) if upward else (b, a)
        v_near, v_far = (va, vb) if upward else (vb, va)
        if v_near == 0:
            z = near
        elif v_far == 0:
            z = far
        else:
            z = a - va * (b - a) / (vb - va)
        if (z > x0) if upward else (z < x0):
            return z
    return None


def _return_zero_lift(rng, n, p):
    """G(x) = x + p + e at breakpoints on a 1/den grid, |e| < 1/(2 den): e = 0
    puts a zero of G - id - p on a breakpoint, two in a row a flat zero
    piece; e of one sign everywhere leaves no zero."""
    den = rng.choice([2, 3, 4])
    picks = rng.sample(range(n * den), rng.randint(1, n * den))
    xs = sorted(Fraction(k, den) for k in picks)
    signs = rng.choice([(-2, -1, 0, 0, 1, 2), (-1, 0, 0, 0, 1), (-2, -1, 1, 2), (1, 2)])
    es = [Fraction(rng.choice(signs), 5 * den) for _ in xs]
    return pl_new(n, [(x, x + p + e) for x, e in zip(xs, es)])


def test_return_zero_scan_matches_window_reference():
    rng = random.Random(4242)
    seen = {"up": 0, "down": 0, "none": 0, "at_breakpoint": 0, "flat": 0}
    for i in range(240):
        n, p = 1 + i % 4, rng.randint(-2, 2)
        G = _return_zero_lift(rng, n, p)
        xs, ys, slopes = G.xs, G.ys, G.slopes
        zero_bps = [x for x, y in zip(xs, ys) if y == x + p]
        seen["at_breakpoint"] += bool(zero_bps)
        seen["flat"] += any(s == 1 and y == x + p for x, y, s in zip(xs, ys, slopes))
        starts = [Fraction(rng.randint(-3 * n * 12, 3 * n * 12), rng.randint(1, 12))
                  for _ in range(12)]
        starts += [x + j * n for x in xs for j in (-1, 0, 1)]
        starts += [x + e for x in zero_bps for e in (Fraction(1, 97), Fraction(-1, 97))]
        for x0 in starts:
            g0 = G.eval(x0) - x0 - p
            if g0 == 0:
                continue
            ref = _window_nearest_zero(G, p, x0, upward=g0 > 0)
            got = dyn._nearest_return(G, p, x0)
            assert got == ref, (G, p, x0)
            if got is None:
                seen["none"] += 1
            else:
                assert type(got) is Fraction
                seen["up" if got > x0 else "down"] += 1
    assert all(seen.values()), seen


def test_rho_of_induced_examples():
    for m in (-1, 0, 2):
        enc = translation_enclosure(translation_homeo(m).leaf_lift(), 10)
        assert (enc.lo, enc.hi) == (m - Fraction(1, 10), m + Fraction(1, 10))
    alpha = Fraction(2, 7)
    enc = translation_enclosure(induce(rotation_lift(alpha), 0).leaf_lift(), 50)
    assert enc.lo <= alpha <= enc.hi
    # offset shifts the leafwise translation number
    enc2 = translation_enclosure(induce(rotation_lift(alpha), 3).leaf_lift(), 50)
    assert enc2.lo == enc.lo + 3 and enc2.hi == enc.hi + 3


def test_rho_of_induced_degree_n_width():
    rng = random.Random(7)
    f = rand_induced(rng, degree=3)
    enc = translation_enclosure(f.leaf_lift(), 30)
    assert enc.width == Fraction(2 * 3, 30)
    e2 = translation_enclosure(f.leaf_lift(), 60)
    assert e2.lo <= enc.hi and enc.lo <= e2.hi


def test_breakpoint_cap_guards_materialization(monkeypatch):
    from soldyn import BreakpointCapExceeded

    F = rand_pl_lift(random.Random(8), n_bps=5)
    monkeypatch.setattr(plkernel, "BREAKPOINT_CAP", 20)
    with pytest.raises(BreakpointCapExceeded):
        F.power(100)
    monkeypatch.setattr(plkernel, "BREAKPOINT_CAP", 30)
    with pytest.raises(BreakpointCapExceeded):
        certify_rational(F, 1, 97)


def test_rational_certificate_degree1_matches_reference_sweep():
    rng = random.Random(77)
    for _ in range(60):
        F = rand_pl_lift(rng, 1, rng.randint(1, 4), rng.choice([4, 6, 8]))
        max_den = rng.randint(1, 12)
        enc = translation_enclosure(F, rng.randint(1, 30))
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        intervals = [(enc.lo, enc.hi), (lo, lo + Fraction(rng.randint(0, 8), 8))]
        for a, b in intervals:
            assert rational_certificate(F, a, b, max_den) == reference_sweep(F, a, b, max_den)


# displacement strictly inside the Farey gap (139/226, 147/239) of order 240
_GAP_LO, _GAP_HI = Fraction(139, 226), Fraction(147, 239)
FAREY240 = pl_new(1, [
    (x, x + _GAP_LO + t * (_GAP_HI - _GAP_LO))
    for x, t in ((0, Fraction(1, 4)), (Fraction(1, 3), Fraction(3, 4)), (Fraction(2, 3), Fraction(1, 2)))
])


def test_farey_gap_q240_needs_logarithmically_many_compositions(monkeypatch):
    # PLLift.power composes integer tables through the kernel function
    # plkernel.compose, not through PLLift.compose, so that is what counts
    calls = count_compositions(monkeypatch)
    q = 240
    rep = rotation_report(FAREY240, q)
    assert rep.exact is None
    assert rep.width == Fraction(2, q)
    # at most two powers, each at most 2*ceil(log2 q) + 1 compositions;
    # the per-denominator sweep needed q - 1 = 239
    assert 0 < len(calls) <= 2 * (2 * math.ceil(math.log2(q)) + 1)


def test_bracket_end_that_certifies_leaves_the_other_power_unbuilt(monkeypatch):
    # the orbit of 0 is not periodic, so the bracket is [1/2, 20/39]; 1/2
    # certifies on the walk of F o F, which is never built, and neither is
    # F^39
    F = pl_new(1, [(0, Fraction(11, 20)), (Fraction(1, 4), Fraction(3, 4)),
                   (Fraction(3, 4), Fraction(5, 4))])
    assert dyn._orbit_bracket(F, Fraction(0), 40, 40)[1:] == (Fraction(1, 2), Fraction(20, 39))
    calls = count_compositions(monkeypatch)
    rep = rotation_report(F, 40)
    assert (rep.exact, rep.witness) == (Fraction(1, 2), Fraction(1, 4))
    assert len(calls) == 0


def _farey_gap_map(rng, order):
    """(F, a/b, c/d): consecutive Farey neighbours a/b < c/d of the given
    order, drawn as the certify benchmark draws them, and a degree-1 lift with
    2-5 breakpoints whose displacement lies strictly between them."""
    while True:
        b = rng.randint(order // 2 + 1, order)
        a = rng.randrange(b)
        if math.gcd(a, b) == 1:
            break
    r = -pow(a, -1, b) % b
    d = r + (order - r) // b * b
    lo, hi = Fraction(a, b), Fraction((1 + a * d) // b, d)
    xs = sorted(Fraction(k, 12) for k in rng.sample(range(12), rng.randint(2, 5)))
    F = pl_new(1, [(x, x + lo + Fraction(rng.randint(1, 7), 8) * (hi - lo)) for x in xs])
    return F, lo, hi


def _mode_locked_map(rng):
    """(F, d): a degree-1 lift with tau = p/d, d <= 7, whose orbit of 0 is
    periodic and whose other orbits generally are not."""
    d = rng.randint(2, 7)
    p = rng.choice([p for p in range(d) if math.gcd(p, d) == 1])
    pts = []
    for j in range(d):
        pts.append((Fraction(j, d), Fraction(j + p, d)))
        bump = Fraction(rng.randint(-3, 3), 8 * d)
        pts.append((Fraction(2 * j + 1, 2 * d), Fraction(2 * (j + p) + 1, 2 * d) + bump))
    return pl_new(1, pts), d


def test_farey_gap_map_builds_only_its_first_end_power(monkeypatch):
    # F - id lies strictly inside (a/b, c/d), so the bracket is that gap and
    # the first end's power G = F^q has G - id strictly inside (q a/b, q c/d):
    # the second end lies outside G's range and its power is never built
    rng = random.Random(40)
    calls = count_compositions(monkeypatch)
    for _ in range(20):
        F, lo, hi = _farey_gap_map(rng, 40)
        assert dyn._orbit_bracket(F, Fraction(0), 40, 40)[1:] == (lo, hi)
        q = min(lo.denominator, hi.denominator)
        calls.clear()
        rep = rotation_report(F, 40)
        assert rep.exact is None and rep.lo < lo < hi < rep.hi
        # F^q is bit_length - 1 squares and popcount - 1 products, and the
        # last of those compositions is walked, not built
        assert len(calls) == q.bit_length() - 1 + bin(q).count("1") - 1 - 1


def _reference_report(F, q, x0):
    """rotation_report's (exact, witness) by definition: the Farey bracket of
    the orbit of x0 over q steps, then each end in the enclosure, by
    (denominator, value), on its own power through certify_rational."""
    x, ends = x0, None
    for m in range(1, q + 1):
        x = F.eval(x)
        v = x - x0
        lo_m, hi_m = Fraction(math.floor(v), m), Fraction(math.ceil(v), m)
        ends = (lo_m, hi_m) if ends is None else (max(ends[0], lo_m), min(ends[1], hi_m))
    lo, hi = (v - 1) / q, (v + 1) / q
    for c in sorted(set(ends), key=lambda c: (c.denominator, c)):
        if lo <= c <= hi:
            wit = certify_rational(F, c.numerator, c.denominator)
            if wit is not None:
                return c, wit
    return None, None


def test_rotation_report_matches_both_ends_on_their_own_powers():
    rng = random.Random(1979)
    larger_end = 0
    for kind in ("random", "farey", "locked") * 60:
        x0 = rand_fraction(rng)
        if kind == "random":
            F = rand_pl_lift(rng, 1, rng.randint(1, 4), rng.choice([4, 6, 8]))
            q = rng.randint(1, 30)
        elif kind == "farey":
            q = rng.randint(2, 40)
            F = _farey_gap_map(rng, q)[0]
        else:
            F, d = _mode_locked_map(rng)
            q = rng.randint(d, 2 * d + 2)
        rep = rotation_report(F, q, x0)
        ref = _reference_report(F, q, x0)
        assert (rep.exact, rep.witness) == ref
        _, L, U = dyn._orbit_bracket(F, x0, q, q)
        larger_end += ref[0] is not None and L != U and ref[0] == max(L, U, key=lambda c: c.denominator)
    # tau is the larger-denominator end, tested on the second power, often enough
    assert larger_end >= 10


def test_degree_n_sweep_stops_at_its_budget(monkeypatch):
    from soldyn import SweepBudgetExceeded

    n = 10**30
    f = induce(pl_new(n, [(0, Fraction(1, 2))]))
    with pytest.raises(SweepBudgetExceeded, match="numerators"):
        rotation_report(f, 5)
    # the count is taken before any power is built: every numerator in the
    # interval, reduced or not, summed over the denominators: 2 + 3 + 4 here
    F = pl_new(3, [(0, Fraction(1, 2))])
    monkeypatch.setattr(dyn, "SWEEP_BUDGET", 9)
    assert rational_certificate(F, Fraction(0), Fraction(1), 3) == (Fraction(1, 2), Fraction(0))
    monkeypatch.setattr(dyn, "SWEEP_BUDGET", 8)
    monkeypatch.setattr(plkernel, "compose", None)
    with pytest.raises(SweepBudgetExceeded):
        rational_certificate(F, Fraction(0), Fraction(1), 3)


def test_rotation_report_accepts_induced_maps():
    rng = random.Random(31)
    for _ in range(5):
        F = rand_pl_lift(rng, 1, 3, 8)
        f = induce(F, rng.randint(-2, 2))
        assert rotation_report(f, 20) == rotation_report(f.leaf_lift(), 20)
        g = embed_degree(f, 2)
        rep = rotation_report(g, 20)
        assert rep.width == Fraction(4, 20)
        if rep.exact is not None:
            assert g.leaf_lift().iterate_eval(rep.witness, rep.exact.denominator) == (
                rep.witness + rep.exact.numerator
            )
    with pytest.raises(DegreeMismatch):
        rotation_report(rand_pl_lift(rng, 2, 3, 8), 20)


def test_enclosure_refuses_an_inverted_interval_or_an_outside_exact():
    with pytest.raises(ValueError, match="^enclosure has lo > hi$"):
        dyn.RotationEnclosure(Fraction(1, 2), Fraction(1, 3), 1)
    with pytest.raises(ValueError, match="^exact value outside enclosure$"):
        dyn.RotationEnclosure(Fraction(1, 3), Fraction(1, 2), 1, Fraction(2, 3), Fraction(0))
    assert dyn.RotationEnclosure(Fraction(1, 3), Fraction(1, 3), 1, Fraction(1, 3)).width == 0


def test_certificate_rechecks_name_the_failing_witness(monkeypatch):
    # the scans find true certificates; the re-checks' evaluations are
    # patched to miss by 1/7, and each re-check names what failed
    from soldyn import CertificateMismatch, PLLift

    F = pl_new(1, [(0, 0), (Fraction(1, 2), Fraction(1, 4))])
    assert rotation_report(F, 10).exact == 0
    assert find_fiber_periodic(induce(F), 0, 1) == sigma(0)
    iterate_eval = PLLift.iterate_eval
    monkeypatch.setattr(PLLift, "iterate_eval", lambda *a: iterate_eval(*a) + Fraction(1, 7))
    with pytest.raises(CertificateMismatch, match="^witness 0 fails the return identity for 0$"):
        rotation_report(F, 10)
    monkeypatch.setattr(dyn, "apply_iter", lambda f, s, q: sol_add(s, sigma(Fraction(1, 7))))
    message = r"^point over 0 fails f\^1\(s\) = s \+ sigma\(0\)$"
    with pytest.raises(CertificateMismatch, match=message):
        find_fiber_periodic(induce(F), 0, 1)


def test_certificate_rechecks_survive_python_O():
    # the return scan is patched to hand back a wrong witness; the explicit
    # re-checks must still catch it when asserts are stripped
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from soldyn import CertificateMismatch, find_fiber_periodic, induce, pl_new, plkernel, rotation_report
        if not sys.flags.optimize:
            sys.exit(3)
        plkernel.first_return = lambda n, points, p, rightmost=False: Fraction(1, 3)
        F = pl_new(1, [(0, 0), (Fraction(1, 2), Fraction(1, 4))])
        for call in (lambda: rotation_report(F, 10), lambda: find_fiber_periodic(induce(F), 0, 1)):
            try:
                call()
            except CertificateMismatch:
                continue
            sys.exit(4)
        print("rechecked")
    """)
    res = run_python("-O", "-c", code, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "rechecked"


# every degree-1 lift with 3 breakpoints on the 1/6 grid; SOLDYN_LARGE_SCOPES=1
# adds those with 4 on the 1/8 grid (19,600 lifts)
_SCOPES = [(3, 6, 924)] + ([(4, 8, None)] if os.environ.get("SOLDYN_LARGE_SCOPES") == "1" else [])


@pytest.mark.parametrize("nb, den, certified", _SCOPES)
def test_every_small_degree1_lift_is_certified_by_hermans_criterion(nb, den, certified):
    # tau = a/b exactly when F^b - id - a has a zero (Herman): each exact
    # value's witness is the leftmost zero, found on the Fraction power;
    # each null report has no such zero for any a/b in [lo, hi], b <= 24;
    # each certificate gives a fiber-periodic point that returns
    q = 24
    seen = Counter()
    for F in degree1_scope(nb, den):
        rep = rotation_report(F, q)
        R = RefLift.of(F)
        if rep.exact is not None:
            a, b = rep.exact.numerator, rep.exact.denominator
            assert leftmost_return(R.power(b), a) == rep.witness, F
            f = induce(F)
            s = find_fiber_periodic(f, a, b)
            assert apply_iter(f, s, b) == sol_add(s, sigma(a, s.depth)), F
            seen["certified"] += 1
            continue
        G = R
        for b in range(1, q + 1):
            for a in range(math.ceil(rep.lo * b), math.floor(rep.hi * b) + 1):
                if math.gcd(a, b) == 1:
                    assert leftmost_return(G, a) is None, (F, a, b)
                    seen["ruled out"] += 1
            G = G.compose(R)
        seen["null"] += 1
    assert certified is None or seen["certified"] == certified, seen
    assert seen["null"] and seen["ruled out"] >= seen["null"], seen
