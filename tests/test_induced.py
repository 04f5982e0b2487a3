import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import soldyn
from soldyn import (
    AnalyticExactUnsupported,
    BreakpointCapExceeded,
    DepthExceeded,
    Hull,
    HullPoint,
    K_map,
    NotDivisorChain,
    NotHomeomorphism,
    NotInducedAtLevel,
    NotMultiple,
    PeriodicPL,
    PLLift,
    SolenoidPoint,
    analytic_new,
    apply,
    apply_iter,
    canonicalize,
    circle_map,
    compose_induced,
    cover_eval,
    deck,
    displacement_at,
    divisors,
    embed_degree,
    embed_int,
    homeo_from_descriptor,
    hull_dist,
    hull_of,
    identity_homeo,
    identity_lift,
    induce,
    invert_induced,
    leaf_displacement,
    leaf_quotient,
    lp_build,
    lp_from_descriptor,
    lp_truncate,
    minimal_period,
    pl_new,
    project,
    rotation_lift,
    sigma,
    sol_add,
    translation_homeo,
)
from genutil import rand_embedded, rand_induced, rand_lp, rand_pl_lift, rand_point, run_python
import reference
from reference import (
    lp_partial_sum_check, lp_sup_gaps, lp_truncation_lift, periodic_grid, sup_diff
)

HALFMAP = pl_new(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)])


def test_induce_examples():
    rot = induce(rotation_lift(Fraction(2, 7)), 0)
    s = rand_point(random.Random(0))
    assert apply(rot, s) == sol_add(s, sigma(Fraction(2, 7)))

    trans = induce(identity_lift(1), 3)
    assert apply(trans, s) == sol_add(s, sigma(3))

    half = induce(HALFMAP, 0)
    assert apply(half, sigma(0)) == sigma(Fraction(1, 2))


def test_apply_identity_and_translation():
    rng = random.Random(1)
    for _ in range(20):
        s = rand_point(rng)
        assert apply(identity_homeo(), s) == s
        assert apply(translation_homeo(1), s) == sol_add(s, sigma(1))


def test_apply_depth_guard():
    f = rand_induced(random.Random(2), degree=4)
    s = SolenoidPoint(Fraction(1, 3), embed_int(1, 2))  # 4 does not divide 2!
    with pytest.raises(DepthExceeded):
        apply(f, s)


def test_cover_eval_and_fiber_lift_depth_guard():
    f = rand_induced(random.Random(2), degree=4)
    for k in (embed_int(1, 2), embed_int(0, 3)):  # 4 divides neither 2! nor 3!
        with pytest.raises(DepthExceeded):
            cover_eval(f, Fraction(1, 3), k)
        with pytest.raises(DepthExceeded):
            f.fiber_lift(k)
    k = embed_int(1, 4)
    assert f.fiber_lift(k).eval(Fraction(1, 3)) == cover_eval(f, Fraction(1, 3), k)


def test_commuting_diagram_level_one():
    rng = random.Random(3)
    for _ in range(100):
        f = rand_induced(rng, degree=1)
        f1 = circle_map(f, 1)
        s = rand_point(rng)
        assert project(apply(f, s), 1) == f1(project(s, 1))


def test_commuting_diagram_divisor_levels_for_embedded_maps():
    rng = random.Random(4)
    for n in (2, 3, 4, 6):
        f = rand_embedded(rng, n)
        maps = {d: circle_map(f, d) for d in divisors(n)}
        for _ in range(25):
            s = rand_point(rng)
            t = apply(f, s)
            for d, fd in maps.items():
                assert project(t, d) == fd(project(s, d))


def test_no_covered_map_below_minimal_period():
    rng = random.Random(5)
    f = rand_induced(rng, degree=2)  # displacement has minimal period 2
    assert minimal_period(leaf_displacement(f)) == 2
    with pytest.raises(NotInducedAtLevel):
        circle_map(f, 1)
    # and the lack is genuine: two points with equal level-1 projections and
    # distinct images
    s1 = SolenoidPoint(Fraction(0), embed_int(0, 8))
    s2 = SolenoidPoint(Fraction(0), embed_int(1, 8))
    assert project(s1, 1) == project(s2, 1)
    assert project(apply(f, s1), 1) != project(apply(f, s2), 1)


def test_equivariance_on_cover():
    rng = random.Random(6)
    for _ in range(20):
        f = rand_induced(rng, degree=rng.choice([1, 2, 3, 4, 6]))
        for _ in range(25):
            x = Fraction(rng.randint(-300, 300), 16)
            k = embed_int(rng.randrange(40320), 8)
            t = rng.randint(-25, 25)
            k_shift = k - embed_int(t, 8)
            assert cover_eval(f, x + t, k_shift) == cover_eval(f, x, k) + t


def test_displacement_field_deck_invariant():
    rng = random.Random(7)
    for _ in range(20):
        f = rand_induced(rng, degree=3)
        s = rand_point(rng)
        t = rng.randint(-10, 10)
        x2, k2 = deck((s.x, s.k), t)
        lhs = cover_eval(f, x2, k2) - x2
        rhs = cover_eval(f, s.x, s.k) - s.x
        assert lhs == rhs


def test_displacement_at_examples():
    rng = random.Random(8)
    f = rand_induced(rng, degree=3)
    d0 = displacement_at(f, embed_int(0, 8))
    assert sup_diff(d0, leaf_displacement(f)) == 0
    # equivariance: delta_{i(t)}(x) = delta_0(x + t)
    for t in (1, 2, 5, -4):
        dt = displacement_at(f, embed_int(t, 8))
        assert sup_diff(dt, d0.translate(t)) == 0
    # constancy on residue classes mod n
    for t in range(12):
        dt = displacement_at(f, embed_int(t, 8))
        dref = displacement_at(f, embed_int(t % 3, 8))
        assert sup_diff(dt, dref) == 0


def test_displacement_factors_through_residues():
    # D_F of an induced map is constant on residue classes, hence not injective
    f = rand_induced(random.Random(9), degree=2)
    assert displacement_at(f, embed_int(0, 8)) == displacement_at(f, embed_int(2, 8))
    assert displacement_at(f, embed_int(1, 8)) == displacement_at(f, embed_int(7, 8))


def test_embed_degree():
    rng = random.Random(10)
    f = rand_induced(rng, degree=2)
    assert embed_degree(f, 2) is f
    g = embed_degree(f, 6)
    assert g.degree == 6
    for _ in range(30):
        s = rand_point(rng)
        assert apply(g, s) == apply(f, s)
    assert minimal_period(leaf_displacement(g)) == minimal_period(leaf_displacement(f))
    with pytest.raises(NotMultiple):
        embed_degree(f, 3)


def test_embed_degree_stops_at_the_breakpoint_cap():
    # 500001 copies of a 2-breakpoint table would hold 1000002 > 10**6
    # breakpoints; composing or reading the map at that degree embeds it too
    f = induce(pl_new(1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))]))
    m = 500_001
    with pytest.raises(BreakpointCapExceeded):
        embed_degree(f, m)
    with pytest.raises(BreakpointCapExceeded):
        compose_induced(f, induce(rotation_lift(0, m)))
    with pytest.raises(BreakpointCapExceeded):
        circle_map(f, m)
    assert embed_degree(f, 3).degree == 3


def test_each_exact_entry_point_refuses_an_analytic_base():
    # one refusal, with one message per entry point, wherever the analytic
    # base is met: at a nonzero fiber, at a degree it must be copied to, or
    # as either factor of a composition at a common degree
    f = induce(analytic_new(0.3, [(0.05, 2.0)], 2), -1)
    pl = induce(rotation_lift(Fraction(1, 3), 2))
    calls = {
        "fiber lifts need a PL base": (lambda: f.fiber_lift(embed_int(1, 8)),),
        "exact displacement needs a PL base": (
            lambda: leaf_displacement(f), lambda: displacement_at(f, embed_int(1, 8))),
        "degree embedding needs a PL base": (lambda: embed_degree(f, 4),),
        "exact composition needs PL bases": (
            lambda: compose_induced(f, pl), lambda: compose_induced(pl, f)),
        "exact inversion needs a PL base": (lambda: invert_induced(f),),
        "the quotient map needs a PL base": (lambda: leaf_quotient(f),),
    }
    for message, entries in calls.items():
        for call in entries:
            with pytest.raises(AnalyticExactUnsupported, match=f"^{message}$"):
                call()
    assert f.fiber_lift(embed_int(2, 8)).alpha == pytest.approx(-0.7)


def test_compose_and_invert():
    rng = random.Random(11)
    f = rand_induced(rng, degree=1)
    fi = invert_induced(f)
    c = compose_induced(f, fi)
    assert c == identity_homeo(1)
    for _ in range(25):
        s = rand_point(rng)
        assert apply(c, s) == s
        assert apply(fi, apply(f, s)) == s


def test_compose_translations_add_offsets():
    c = compose_induced(translation_homeo(2), translation_homeo(3))
    assert c == translation_homeo(5)
    assert c.offset == 5 and c.base == identity_lift(1)


def test_same_base_maps_differ_by_integer_translation():
    rng = random.Random(14)
    F = rand_pl_lift(rng)
    f1, f2 = induce(F, 1), induce(F, 3)
    assert compose_induced(translation_homeo(2), f1) == f2
    diff = compose_induced(f2, invert_induced(f1))
    assert diff == translation_homeo(2)


def test_compose_degree_lcm():
    rng = random.Random(12)
    f2 = rand_induced(rng, degree=2)
    f3 = rand_induced(rng, degree=3)
    c = compose_induced(f2, f3)
    assert c.degree == 6
    for _ in range(20):
        s = rand_point(rng)
        assert apply(c, s) == apply(f2, apply(f3, s))


def test_compose_associative():
    rng = random.Random(13)
    f, g, h = (rand_induced(rng, degree=d) for d in (1, 2, 3))
    assert compose_induced(compose_induced(f, g), h) == compose_induced(
        f, compose_induced(g, h)
    )


def test_homeo_descriptor_roundtrip():
    f = induce(HALFMAP, -1)
    d = f.to_descriptor()
    assert d["offset"] == -1 and d["degree"] == 1
    assert homeo_from_descriptor(d) == f
    with pytest.raises(ValueError):
        homeo_from_descriptor({"degree": 2, "offset": 0, "lift": d["lift"]})


def tri(T, amp):
    return PeriodicPL(T, [(0, 0), (Fraction(T, 2), Fraction(amp))])


def test_lp_build_validation():
    with pytest.raises(NotDivisorChain):
        lp_build((2, 3), [tri(2, "1/4"), tri(3, "1/8")])
    with pytest.raises(ValueError):
        lp_build((1, 2), [tri(2, "1/4"), tri(2, "1/8")])  # period mismatch
    with pytest.raises(NotHomeomorphism):
        # slope 2A/T = 2*(3/5)/1 > 1 downhill somewhere: min slope <= -1
        lp_build((1,), [tri(1, "3/5")])


def _tower_check_outcome(check, *args):
    try:
        check(*args)
    except (NotHomeomorphism, BreakpointCapExceeded) as exc:
        return type(exc), str(exc)
    return None


def _passing_summand(rng, T):
    """A period-T summand on a grid of quarters whose own slopes are > -1."""
    while True:
        xs = sorted(Fraction(k, 4) for k in rng.sample(range(4 * T), 1 + rng.randrange(4)))
        d = PeriodicPL(T, [(x, Fraction(rng.randint(-6, 6), 16)) for x in xs])
        if min(d.slopes) > -1:
            return d


@pytest.mark.parametrize("cap", [None, 24])
def test_lp_build_tower_check_matches_partial_sum_reference(monkeypatch, cap):
    # every summand passes on its own; a refusal comes from a partial sum at
    # level 2 or later, or, under a small cap, from a repeated grid past it
    if cap is not None:
        monkeypatch.setattr(soldyn.plkernel, "BREAKPOINT_CAP", cap)
    rng = random.Random(2117)
    chains = ((1, 2), (1, 3), (1, 2, 6), (2, 4, 12), (1, 2, 4, 12, 24), (3, 6, 12))
    kinds, levels = set(), set()
    for i in range(120):
        tower = chains[i % len(chains)]
        summands = [_passing_summand(rng, T) for T in tower]
        want = _tower_check_outcome(lp_partial_sum_check, summands)
        assert _tower_check_outcome(lp_build, tower, summands) == want, (tower, summands)
        kinds.add(want[0] if want else None)
        if want:
            levels.add(next(j for j in range(1, len(tower) + 1)
                            if _tower_check_outcome(lp_partial_sum_check, summands[:j])))
    assert {None, NotHomeomorphism} <= kinds
    assert (BreakpointCapExceeded in kinds) == (cap is not None)
    assert min(levels) == 2 and max(levels) >= 3


def test_lp_build_refuses_a_partial_slope_of_exactly_minus_one():
    q = Fraction(1, 4)
    cases = [
        # slopes -1/2 on [1/2, 1) + 1 and on [1, 2): the sum has slope -1 on [3/2, 2)
        [tri(1, "1/4"), tri(2, "1/2")],
        # slope -1/2 on [0, 1/4), the piece before the first summand's first
        # breakpoint, which carries its last slope, and -1/2 there in the second
        [PeriodicPL(1, [(q, 0), (3 * q, q)]), PeriodicPL(2, [(0, 0), (q, -q / 2), (1, 0)])],
    ]
    for summands in cases:
        want = _tower_check_outcome(lp_partial_sum_check, summands)
        assert want is not None and want[0] is NotHomeomorphism
        assert _tower_check_outcome(lp_build, (1, 2), summands) == want
    # just above -1 the truncation is a homeomorphism
    lp_build((1, 2), [tri(1, "1/4"), tri(2, "15/32")])


def test_lp_build_adds_no_summands(monkeypatch):
    # lp_build reads slopes and the tower sums run on integer rows: no
    # summand is evaluated and no PeriodicPL is built
    def refuse(*args):
        raise AssertionError("tower sums must not evaluate or build a PeriodicPL")

    monkeypatch.setattr(PeriodicPL, "eval", refuse)
    monkeypatch.setattr(PeriodicPL, "_trusted", refuse)
    path = Path(__file__).resolve().parents[1] / "descriptors" / "lp_tower4.json"
    h = lp_from_descriptor(json.loads(path.read_text()))
    assert h.tower == (1, 2, 6, 24)
    assert h.sup_gaps()[-1] == 0
    assert [lp_truncate(h, j)[0].degree for j in range(1, 5)] == [1, 2, 6, 24]
    with pytest.raises(NotHomeomorphism):
        lp_build((1, 2), [tri(1, "1/4"), tri(2, "1/2")])


def test_lp_build_stops_at_the_breakpoint_cap(tmp_path):
    # the period-1 summand repeated over 10^30 would need 2 * 10^30 breakpoints
    T = 10**30
    desc = {"lp": {"tower": [1, T], "tail_bound": "0", "summands": [
        {"period": "1", "breakpoints": [["0", "0"], ["1/2", "1/4"]]},
        {"period": str(T), "breakpoints": [["0", "0"], ["1", "1/16"]]}]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(desc))
    res = run_python("-m", "soldyn", "density", "--input", str(path), timeout=20)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    # in process only after the subprocess proved it terminates
    summands = [tri(1, "1/4"), PeriodicPL(T, [(0, 0), (1, Fraction(1, 16))])]
    got = _tower_check_outcome(lp_build, (1, T), summands)
    assert got == _tower_check_outcome(lp_partial_sum_check, summands)
    assert got[0] is BreakpointCapExceeded


def test_lp_truncate_geometric_tail():
    tower = (1, 2, 6, 24)
    summands = [tri(T, Fraction(1, 4**j)) for j, T in enumerate(tower, start=1)]
    h = lp_build(tower, summands, tail_bound=Fraction(1, 3 * 4**4))
    for j in range(1, 5):
        trunc, bound = lp_truncate(h, j)
        assert bound == Fraction(1, 3 * 4**j)
        assert trunc.degree == tower[j - 1]
    full, b_top = lp_truncate(h, 4)
    # without a declared residual tail the top truncation discards nothing
    h0 = lp_build(tower, summands)
    assert lp_truncate(h0, 4)[1] == 0
    # grid check: |h - trunc_j| <= B_j pointwise
    grid = [Fraction(i, 16) for i in range(16 * 24)]
    for j in range(1, 5):
        trunc, bound = lp_truncate(h, j)
        gap = max(abs(h.eval(x) - trunc.base.eval(x)) for x in grid)
        assert gap <= bound


def test_lp_build_rejects_negative_tail_bound():
    with pytest.raises(ValueError, match="tail_bound"):
        lp_build((1, 2), [tri(1, "1/4"), tri(2, "1/16")], tail_bound="-1/48")
    assert lp_build((1,), [tri(1, "1/4")], tail_bound=0).tail_from(1) == 0


def test_sup_gaps_match_truncation_reference():
    # reference: the tail sum_{i>j} delta_i by Fraction evaluations of the
    # summands, maxed over the union of the tail summands' breakpoint grids
    rng = random.Random(41)
    chains = ((1,), (1, 3), (1, 2, 6), (2, 4, 12, 24), (1, 2, 4, 12, 24))
    for i in range(20):
        h = rand_lp(rng, chains[i % len(chains)], zero_tail=i % 3 == 0)
        top = h.tower[-1]
        union = sorted(set().union(*(periodic_grid(d, top) for d in h.summands[1:])))
        gaps = h.sup_gaps()
        assert len(gaps) == h.levels
        n = rng.choice((1, 7, 50))
        grid = [Fraction(k * top, n) + Fraction(rng.randrange(8), 97) for k in range(n)]
        for j, gap in enumerate(gaps, start=1):
            tail = h.summands[j:]
            diffs = [abs(sum(d.eval(x) for d in tail)) for x in union]
            assert gap == max(diffs, default=Fraction(0))
            trunc = lp_truncate(h, j)[0].base
            assert max(abs(h.eval(x) - trunc.eval(x)) for x in grid) <= gap <= h.tail_from(j)
        assert all(type(g) is Fraction for g in gaps)
        assert gaps[-1] == 0


def _oracle_summand(rng, T, j):
    """A period-T summand on a grid of 1/4, 1/5, 1/7 or 1/12, with more and
    smaller steps at later levels."""
    den = rng.choice((4, 5, 7, 12))
    count = 1 + rng.randrange(min(2 + 8 * j, den * T))
    xs = sorted(Fraction(k, den) for k in rng.sample(range(den * T), count))
    return PeriodicPL(T, [(x, Fraction(rng.randint(-4, 4), 16 * 4**j)) for x in xs])


def _outcome(call, *args):
    try:
        return call(*args)
    except BreakpointCapExceeded as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cap", [None, 24])
def test_tower_sums_match_the_reference_add_chain(monkeypatch, cap):
    # sup_gaps and every lp_truncate table, field by field, against the
    # chains of Fraction sums; under a small cap a union of tail summands
    # can pass it in both, with the same exception
    if cap is not None:
        monkeypatch.setattr(soldyn.plkernel, "BREAKPOINT_CAP", cap)
    rng = random.Random(2323)
    chains = ((1,), (1, 2, 2, 2), (1, 2, 4), (1, 3, 6, 6), (1, 1, 2, 2, 2),
              (1, 2, 4, 12, 12, 24), (1, 1, 2, 2, 2, 2))
    accepted, kinds = 0, set()
    for i in range(180):
        tower = chains[i % len(chains)]
        summands = [_oracle_summand(rng, T, j) for j, T in enumerate(tower)]
        tail_bound = Fraction(rng.randrange(3), 4**8)
        try:
            h = lp_build(tower, summands, tail_bound)
        except (NotHomeomorphism, BreakpointCapExceeded):
            continue
        accepted += 1
        gaps = _outcome(h.sup_gaps)
        assert gaps == _outcome(lp_sup_gaps, h), tower
        kinds.add("capped" if isinstance(gaps, tuple) else "gaps")
        for j in range(1, h.levels + 1):
            trunc, bound = lp_truncate(h, j)
            ref = lp_truncation_lift(h, j)
            assert (trunc.offset, trunc.degree, bound) == (0, ref.degree, h.tail_from(j))
            for name, got, want in zip(("xn", "xd", "yn", "yd", "sn", "sd"),
                                       trunc.base._table, ref._table):
                assert got == want, (tower, j, name)
    assert accepted >= 100
    assert kinds == ({"gaps", "capped"} if cap else {"gaps"})


def test_lp_descriptor_roundtrip():
    tower = (1, 2)
    h = lp_build(tower, [tri(1, "1/4"), tri(2, "1/16")], tail_bound="1/48")
    d = h.to_descriptor()
    h2 = lp_from_descriptor(d)
    assert h2.tower == h.tower
    assert h2.tail_bound == Fraction(1, 48)
    assert all(sup_diff(a, b) == 0 for a, b in zip(h.summands, h2.summands))


def test_lp_truncations_are_homeomorphisms():
    tower = (1, 2, 6)
    h = lp_build(tower, [tri(T, Fraction(1, 4**j)) for j, T in enumerate(tower, 1)])
    for j in (1, 2, 3):
        trunc, _ = lp_truncate(h, j)
        inv = invert_induced(trunc)
        s = canonicalize(Fraction(5, 16), embed_int(77, 8))
        assert apply(inv, apply(trunc, s)) == s


def test_circle_map_breakpoints_match_direct_construction():
    # reference: canonical breakpoints of delta mod T, plus 0, repeated to level d
    rng = random.Random(14)
    for n in (1, 2, 3, 4, 6):
        f = rand_embedded(rng, n) if n % 2 else rand_induced(rng, degree=n)
        delta = f.base.displacement()
        T = minimal_period(delta)
        xs = sorted({x % T for x, _ in delta.canonical_breakpoints()} | {Fraction(0)})
        for d in (T, 2 * T, n, 12):
            if d % T:
                continue
            pts = sorted(
                (x + j * T, x + delta.eval(x) + f.offset + j * T)
                for j in range(d // T)
                for x in xs
            )
            lift = circle_map(f, d).lift
            assert (lift.degree, lift.xs, lift.ys) == (
                d, tuple(p[0] for p in pts), tuple(p[1] for p in pts)
            )


# The Fraction read path that the integer kernel replaced is kept in `reference`.


def _same(u, v):
    """Equal values of the same type; a float agrees to the last bit."""
    return type(u) is type(v) and u == v and repr(u) == repr(v)


def _same_pl(d, e):
    return _same(d.period, e.period) and all(
        len(a) == len(b) and all(map(_same, a, b))
        for a, b in ((d.xs, e.xs), (d.vs, e.vs), (d.slopes, e.slopes))
    )


def test_integer_read_path_matches_fraction_reference():
    rng = random.Random(20)
    maps = []
    for n in range(1, 7):
        for offset in range(-2, 3):
            maps.append(induce(rand_pl_lift(rng, n, rng.randint(1, 3) * n, 8), offset))
            if n > 1:
                maps.append(embed_degree(induce(rand_pl_lift(rng, 1, 3, 12), offset), n))
    maps.append(induce(analytic_new(0.3, [(0.05, 2.0)], 2), -2))
    carries = 0
    for f in maps:
        n = f.degree
        pl = isinstance(f.base, PLLift)
        inv = f.base.inverse() if pl else None
        for depth in range(1, 11):
            top = factorial(depth)
            if top % n:
                continue
            pts = []
            for _ in range(4):
                k = embed_int(rng.randrange(top), depth)
                den = rng.randint(1, 10 ** rng.randint(1, 30))
                pts.append(SolenoidPoint(Fraction(rng.randrange(den), den), k))
                pts.append(SolenoidPoint(rng.random(), k))
                if pl:
                    # a start whose image is the integer m on the cover
                    r, m = k.residue(n), rng.randint(-3, 3)
                    u = inv.eval(Fraction(m + r - f.offset))
                    pts.append(canonicalize(u - r, k))
            for s in pts:
                new, ref = apply(f, s), reference.apply(f, s)
                assert _same(new.x, ref.x) and new.k == ref.k, (f, s)
                carries += pl and isinstance(s.x, Fraction) and new.x == 0 and new.k != s.k
                for m in {n, *(d for d in (1, 2, 6, 24, 120) if top % d == 0)}:
                    for t in (s, new):
                        c = project(t, m)
                        assert c.modulus == m and _same(c.value, reference.project(t, m)), (t, m)
        if pl:
            delta = f.base.displacement()
            assert _same_pl(delta, reference.displacement(f.base))
            assert _same_pl(leaf_displacement(f), reference.add_const(delta, f.offset))
            for hull in (hull_of(delta), Hull(delta, rng.randint(1, 9))):
                params = [Fraction(rng.randrange(10**6), 10**6) * hull.period for _ in range(6)]
                params += [K_map(s, hull).param for s in pts]
                hps = [HullPoint(hull, t) for t in params + [hull.period - params[0]]]
                for a, b in zip(hps, hps[1:] + hps[:2]):
                    assert _same(hull_dist(a, b), reference.hull_dist(a, b)), (a.param, b.param)
    assert carries > 100
