import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldyn import (
    AnalyticExactUnsupported,
    BreakpointCapExceeded,
    DegreeMismatch,
    EmptyBreakpoints,
    LimitPeriodicHomeo,
    NotMonotone,
    PeriodicPL,
    PLLift,
    analytic_new,
    divisors,
    embed_degree,
    identity_lift,
    induce,
    invert_induced,
    lp_truncate,
    map_from_descriptor,
    minimal_period,
    pl_new,
    plkernel,
    rotation_lift,
)
from soldyn.circlemaps import exact_pair
from soldyn.induced import _add, _forms, _values
from genutil import (
    big_lift, count_compositions, grid_lift, rand_fraction, rand_pl_lift, small_fractions,
)
from interpreter_smoke import PARSER_CORPUS, fraction_310, parse_outcome
from reference import (
    RefLift, check_table, fraction_columns, fraction_pieces, has_period, periodic_add,
    periodic_eval, piece_eval, reference_compose, reference_inverse, sup_diff,
)

HALF = [(0, Fraction(1, 2)), (Fraction(1, 2), 1)]


def test_pl_new_examples():
    rot = pl_new(1, [(0, Fraction(2, 7))])
    assert rot.eval(Fraction(3, 5)) == Fraction(3, 5) + Fraction(2, 7)
    halfmap = pl_new(1, HALF)
    assert halfmap.eval(0) == Fraction(1, 2)
    assert halfmap.eval(Fraction(1, 2)) == 1


def test_pl_new_rejections():
    with pytest.raises(NotMonotone):
        pl_new(1, [(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4))])
    with pytest.raises(NotMonotone):
        pl_new(1, [(0, 0), (Fraction(1, 2), Fraction(3, 2))])  # wrap violation
    with pytest.raises(NotMonotone):
        pl_new(1, [(0, 0), (0, Fraction(1, 2))])
    with pytest.raises(EmptyBreakpoints):
        pl_new(1, [])
    with pytest.raises(ValueError):
        pl_new(1, [(Fraction(3, 2), 0)])
    with pytest.raises(TypeError):
        pl_new(1, [(0.5, 1)])


def test_exact_pair_reads_integer_strings_as_fraction_does():
    # signs, -0, leading zeros and parts past 1,000 bits, as reduced pairs
    rng = random.Random(2601)
    literals = ["0", "-0", "-0/7", "007/014", "-12/8", "0012", "5/5"]
    for bits in (4, 64, 1100, 1500):
        for _ in range(40):
            n, d = rng.randint(-(1 << bits), 1 << bits), rng.randrange(1, 1 << bits)
            zeros = "0" * rng.randrange(3)
            literals += [str(n), f"{n}/{d}", f"{'-' * (n < 0)}{zeros}{abs(n)}/{zeros}{d}"]
    for lit in literals:
        ref = Fraction(lit)
        got = exact_pair(lit)
        assert got == (ref.numerator, ref.denominator) and type(got[0]) is int, lit
    for v in (0, -7, 10**400, Fraction(-3, 9), Fraction(10**30, 7)):
        assert exact_pair(v) == (Fraction(v).numerator, Fraction(v).denominator)
    for v in (0.5, True, False):
        with pytest.raises(TypeError):
            exact_pair(v)


def test_exact_pair_gives_what_fraction_gives_off_its_integer_path():
    # a value, or the same exception type and message, as 3.10's Fraction
    # gives on every interpreter: "1_000" and "1 / 2" are refused, and so is
    # "1e9_000" before its exponent is read
    for lit in PARSER_CORPUS:
        assert parse_outcome(exact_pair, lit) == parse_outcome(fraction_310, lit), lit[:20]
    for lit in ("1_000", "1 / 2", "1/\t2", "1e9_000"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            exact_pair(lit)


def test_exact_pair_refuses_literals_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for lit in ("1e100000000", "1e-100000000", " -2.5E+9000 "):
        with pytest.raises(ValueError, match="digit limit"):
            exact_pair(lit)
    # within twice the limit, the most a "p/q" literal holds, Fraction reads it
    for lit in ("1e-5000", "1.5e4301", f"1e{2 * limit - 10}"):
        assert exact_pair(lit) == (Fraction(lit).numerator, Fraction(lit).denominator)
    assert exact_pair(" 1/2 ") == (1, 2)
    # no limit, no check
    try:
        sys.set_int_max_str_digits(0)
        assert exact_pair("1e9000") == (10**9000, 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_breakpoints_read_as_pairs_give_the_fraction_construction():
    # strings, unreduced strings, ints and Fractions, sorted or shuffled: the
    # columns of sorting Fractions and dividing their differences
    rng = random.Random(2602)
    forms = (str, lambda v: v, lambda v: f"{3 * v.numerator}/{3 * v.denominator}",
             lambda v: v.numerator if v.denominator == 1 else str(v))
    for i in range(200):
        n = 1 + i % 3
        F = rand_pl_lift(rng, n, rng.randint(1, 4), rng.choice([4, 9, 12]))
        F = F.translate(Fraction(rng.randint(-9, 9), 7))
        bps = [(rng.choice(forms)(x), rng.choice(forms)(y)) for x, y in zip(F.xs, F.ys)]
        if i % 2:
            rng.shuffle(bps)
        G = pl_new(n, bps)
        check_table(n, G._table)
        assert fraction_columns(G._table) == fraction_pieces(n, bps, n)
        T = rng.randint(1, 12)
        xs = {T * Fraction(rng.randrange(24), 24) for _ in range(rng.randint(1, 5))}
        pts = [(rng.choice(forms)(x), rng.choice(forms)(Fraction(rng.randint(-9, 9), 16)))
               for x in xs]
        d = PeriodicPL(rng.choice(forms)(T), pts)
        assert (d.period, list(d.xs), list(d.vs), list(d.slopes)) == (T, *fraction_pieces(T, pts, 0))


def test_refused_breakpoints_keep_their_messages():
    cases = [
        (lambda: pl_new(1, [("1/2", "1"), ("1/2", "3/4"), ("0", "0")]), NotMonotone,
         "duplicate breakpoint at x=1/2"),
        (lambda: pl_new(1, [("1/2", "1/4"), ("0", "1/2")]), NotMonotone,
         "values must increase: y(0) >= y(1/2)"),
        (lambda: pl_new(2, [("0", "0"), ("2", "1")]), ValueError,
         "breakpoint abscissae must lie in [0, 2)"),
        (lambda: pl_new(1, [("0", "0"), ("1/2", "3/2")]), NotMonotone,
         "wrap-around violates strict monotonicity"),
        (lambda: pl_new(1, [("0", "1/0")]), ZeroDivisionError, "Fraction(1, 0)"),
        (lambda: PeriodicPL("3/2", [("0", "0"), ("3/2", "1")]), ValueError,
         "period 3/2 is not an integer"),
        (lambda: PeriodicPL("6/2", [("0", "0"), ("3", "1")]), ValueError,
         "breakpoint abscissae must lie in [0, 3)"),
        (lambda: PeriodicPL("-0", [("0", "0")]), ValueError, "period must be positive"),
        (lambda: PeriodicPL(1, [("1/4", "1"), ("1/4", "0")]), ValueError,
         "duplicate breakpoint at x=1/4"),
        (lambda: PeriodicPL(1, []), EmptyBreakpoints, "a periodic PL function needs a breakpoint"),
    ]
    for build, exc, message in cases:
        with pytest.raises(exc) as info:
            build()
        assert str(info.value) == message


def test_eval_between_breakpoints():
    F = pl_new(1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))])
    # segment slope 1 on [0,1/2], wrap slope 1 on [1/2,1]
    assert F.eval(Fraction(1, 4)) == Fraction(1, 2)
    assert F.eval(Fraction(3, 4)) == 1
    assert F.eval(Fraction(9, 4)) == Fraction(1, 2) + 2


@settings(deadline=None)
@given(small_fractions, st.integers(-5, 5))
def test_equivariance(x, j):
    F = pl_new(1, HALF)
    assert F.eval(x + j) == F.eval(x) + j


def test_equivariance_degree_n():
    rng = random.Random(0)
    for degree in (2, 3, 6):
        F = rand_pl_lift(rng, degree=degree)
        for _ in range(50):
            x = Fraction(rng.randint(-200, 200), 16)
            assert F.eval(x + degree) == F.eval(x) + degree


def test_compose_inverse_identity():
    rng = random.Random(1)
    F = rand_pl_lift(rng, n_bps=4)
    FI = F.inverse()
    C = F.compose(FI)
    pts = [Fraction(i, 500) for i in range(1000)]
    assert all(C.eval(x) == x for x in pts)
    assert C == identity_lift(1)


def test_compose_is_function_composition():
    rng = random.Random(2)
    F, G = rand_pl_lift(rng), rand_pl_lift(rng)
    C = F.compose(G)
    for _ in range(200):
        x = rand_fraction(rng, 64)
        assert C.eval(x) == F.eval(G.eval(x))


def test_compose_associative():
    rng = random.Random(3)
    F, G, H = (rand_pl_lift(rng) for _ in range(3))
    left = F.compose(G).compose(H)
    right = F.compose(G.compose(H))
    grid = sorted(set(left.xs) | set(right.xs))
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    for x in grid + mids:
        assert left.eval(x) == right.eval(x)
    assert left == right


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        identity_lift(2).compose(identity_lift(3))


def test_iterate_eval_example():
    assert pl_new(1, HALF).iterate_eval(0, 2) == 1
    # negative exponent runs through the exact inverse
    F = pl_new(1, HALF)
    assert F.iterate_eval(F.iterate_eval(Fraction(1, 3), 5), -5) == Fraction(1, 3)


def test_power_matches_pointwise_iteration():
    rng = random.Random(4)
    F = rand_pl_lift(rng, n_bps=3)
    G = F.power(7)
    for _ in range(50):
        x = rand_fraction(rng)
        assert G.eval(x) == F.iterate_eval(x, 7)


def test_displacement_examples():
    rot = rotation_lift(Fraction(2, 5))
    d = rot.displacement()
    assert not d.canonical_breakpoints() and d.eval(Fraction(9, 7)) == Fraction(2, 5)
    assert d.sup_norm() == Fraction(2, 5)
    assert identity_lift(1).displacement().sup_norm() == 0
    dh = pl_new(1, HALF).displacement()
    assert dh.sup_norm() == Fraction(1, 2)
    assert dh.eval(0) == Fraction(1, 2)


def test_displacement_of_translated_lift():
    rng = random.Random(5)
    F = rand_pl_lift(rng)
    for m in (-2, 1, 3):
        shifted = rotation_lift(m).compose(F).displacement()
        assert sup_diff(shifted, F.translate(m).displacement()) == 0


def test_minimal_period_examples():
    rot2 = rotation_lift(Fraction(1, 3), degree=2)
    assert minimal_period(rot2.displacement()) == 1

    # degree-2 lift made by repeating a 1-periodic pattern
    rng = random.Random(6)
    F1 = rand_pl_lift(rng)
    rep = pl_new(2, [(x + j, y + j) for j in (0, 1) for x, y in zip(F1.xs, F1.ys)])
    assert minimal_period(rep.displacement()) == 1

    # degree-2 lift with distinct behavior on [0,1) and [1,2)
    distinct = pl_new(2, [(0, Fraction(1, 4)), (1, Fraction(3, 2))])
    assert minimal_period(distinct.displacement()) == 2


def test_has_period_matches_translate_reference():
    # the slope-change test against delta^T - delta as an exact sup over the
    # merged breakpoint grid
    def reference(delta, T):
        return sup_diff(delta, delta.translate(T)) == 0

    rng = random.Random(17)
    outcomes = set()
    for i in range(120):
        P = Fraction(rng.choice([1, 2, 3, 4, 6]))
        r = rng.choice([1, 2, 3, 6])  # the pattern repeats r times per period
        xs = sorted(rng.sample(range(12), rng.randint(1, 4)))
        if i % 4 == 0:  # constant, stored with one or several breakpoints
            c = Fraction(rng.randint(-9, 9), 8)
            vals = [c] * len(xs)
        else:
            vals = [Fraction(rng.randint(-9, 9), 8) for _ in xs]
        base = P / r
        delta = PeriodicPL(P, [(base * (j + Fraction(k, 12)), v)
                               for j in range(r) for k, v in zip(xs, vals)])
        candidates = [P / d for d in (1, 2, 3, 4, 6, 12)]  # divisors, some periods
        candidates += [P * Fraction(2, 5), Fraction(rng.randint(1, 40), rng.randint(1, 12))]
        candidates += [P * Fraction(rng.randint(7, 20), rng.randint(1, 6)), 2 * P, P + base]
        for T in candidates:
            got = has_period(delta, T)
            assert got == reference(delta, T), (delta, T)
            outcomes.add((i % 4 == 0, got))
        # the divisor scan that minimal_period replaced
        least = next(T for T in divisors(P.numerator) if has_period(delta, T))
        assert minimal_period(delta) == least, delta
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_minimal_period_divides_degree():
    rng = random.Random(7)
    for degree in (1, 2, 3, 4, 6):
        F = rand_pl_lift(rng, degree=degree)
        T = minimal_period(F.displacement())
        assert degree % T == 0


def test_divisors_match_naive_scan():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_periodic_pl_algebra():
    tri = PeriodicPL(2, [(0, 0), (1, Fraction(1, 4))])
    assert tri.eval(Fraction(1, 2)) == Fraction(1, 8)
    assert tri.eval(Fraction(5, 2)) == Fraction(1, 8)
    assert tri.translate(Fraction(1, 2)).eval(0) == tri.eval(Fraction(1, 2))
    s = periodic_add(tri, PeriodicPL(1, [(0, Fraction(1, 8))]))
    assert s.period == 2
    assert s.eval(1) == Fraction(1, 4) + Fraction(1, 8)
    assert has_period(tri, 2) and not has_period(tri, 1)


def _same_periodic(d, e):
    for a, b in ((d.xs, e.xs), (d.vs, e.vs), (d.slopes, e.slopes)):
        assert type(a) is tuple and a == b
        assert all(type(v) is Fraction for v in a)
    assert type(d.period) is int and d.period == e.period


def test_periodic_translate_add_match_checked_constructor():
    # translate rotates at the wrap index; the reference sorts and checks
    # every breakpoint again.  The integer tower sum of two summands (`_add`)
    # has the grid, values and slopes of the Fraction sum
    rng = random.Random(909)
    for _ in range(300):
        T = rng.choice([1, 2, 3, 4, 5])
        cells = 6 * T
        picks = rng.sample(range(cells), rng.randint(1, min(cells, 6)))
        xs = sorted(Fraction(k, 6) for k in picks)
        d = PeriodicPL(T, [(x, Fraction(rng.randint(-9, 9), 16)) for x in xs])
        t = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 12]))
        ref = PeriodicPL(T, [((x - t) % T, v) for x, v in zip(d.xs, d.vs)])
        _same_periodic(d.translate(t), ref)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        e = PeriodicPL(T, [(x, v * c) for x, v in zip(d.xs, d.vs)]).translate(t)
        big = PeriodicPL(2 * T, [(x * 2, v) for x, v in zip(d.xs, d.vs)])
        for a, b in ((d, e), (d, big), (big, d)):
            ref = periodic_add(a, b)
            D, L, (fa, fb) = _forms([a, b])
            S = _add(fa, fb, ref.period, D)
            assert (S[0], [Fraction(x, D) for x in S[1]]) == (ref.period, list(ref.xs))
            assert [Fraction(v, D * L) for v in _values(S)] == list(ref.vs)
            assert [Fraction(s, L) for s in S[2]] == list(ref.slopes)


def test_periodic_eval_matches_the_fraction_tuple_eval_bit_for_bit():
    # exact x gives the same Fraction, binary64 x the same float to the last
    # bit, as the bisection over Fraction tuples that the table replaced;
    # negative x and x several periods out, periods 1-6 and 10^30
    rng = random.Random(3003)
    checked = 0
    for T in (1, 2, 3, 4, 5, 6, 10**30):
        for _ in range(12):
            den = rng.choice([2, 3, 8, 12, 10**9])
            xs = {T * Fraction(rng.randrange(den), den) for _ in range(rng.randint(1, 6))}
            d = PeriodicPL(T, [(x, Fraction(rng.randint(-99, 99), rng.choice([1, 7, 16, 10**12])))
                               for x in xs])
            points = [*d.xs, *(x - T for x in d.xs), 0, -T, 5 * T]
            for _ in range(20):
                m = rng.randint(-4, 4) * T
                points.append(m + T * Fraction(rng.randrange(10**6), 10**6))
                points.append(m + T * Fraction(rng.randrange(-10**30, 10**30), 10**30))
                points.append(float(m) + T * rng.random())
                points.append(float(rng.randint(-9, 9) * T) - T * rng.random())
            points += [float(x) for x in d.xs] + [float(x + 3 * T) for x in d.xs]
            for x in points:
                got, ref = d.eval(x), periodic_eval(d, x)
                assert type(got) is type(ref) and got == ref and repr(got) == repr(ref), (d, x)
                checked += 1
    assert checked > 6000


def test_periodic_equality_and_hash_read_the_function_not_its_breakpoints():
    tri = PeriodicPL(2, [(0, 0), (1, Fraction(1, 4))])
    assert repr(tri) == "PeriodicPL(period=2, [(0, 0), (1, 1/4)])"
    # an extra breakpoint where the slope does not change, at the wrap too
    same = [
        PeriodicPL(2, [(0, 0), (Fraction(1, 2), Fraction(1, 8)), (1, Fraction(1, 4))]),
        PeriodicPL(2, [(0, 0), (1, Fraction(1, 4)), (Fraction(3, 2), Fraction(1, 8))]),
        PeriodicPL("2", [("1", "1/4"), ("0", "0")]),
    ]
    for d in same:
        assert d == tri and hash(d) == hash(tri) and tri.translate(0) == d, d
    # a constant at one breakpoint and at three
    c1 = PeriodicPL(3, [(1, Fraction(-1, 3))])
    c3 = PeriodicPL(3, [(x, Fraction(-1, 3)) for x in (0, Fraction(1, 2), 2)])
    assert repr(c1) == "PeriodicPL(period=3, [(1, -1/3)])"
    assert c1.canonical_breakpoints() == c3.canonical_breakpoints() == ()
    assert c1 == c3 and hash(c1) == hash(c3) and c1 == c3.translate(Fraction(5, 7))
    others = [
        PeriodicPL(3, [(1, Fraction(1, 3))]),  # another constant
        PeriodicPL(1, [(0, Fraction(-1, 3))]),  # another period
        PeriodicPL(3, [(0, Fraction(-1, 3)), (1, 0)]),
        PeriodicPL(4, [(0, 0), (1, Fraction(1, 4))]),
        tri.translate(1),
    ]
    for d in others:
        assert d != c1 and d != tri and c1 != d and tri != d, d
    assert (tri == 0) is False and tri.__eq__(tri.xs) is NotImplemented
    assert len({tri, *same, c1, c3, *others}) == 2 + len(others)


def test_analytic_lift():
    F = analytic_new(0.3, [(0.05, 1.0)])
    x = 0.7
    assert F.eval(x + 1) == pytest.approx(F.eval(x) + 1, abs=1e-12)
    with pytest.raises(NotMonotone):
        analytic_new(0.1, [(0.2, 1.0)])  # |a| 2 pi / T >= 1
    with pytest.raises(ValueError):
        analytic_new(0.1, [(0.01, 0.7)])  # period does not divide degree
    with pytest.raises(AnalyticExactUnsupported):
        identity_lift(1).compose(F)
    with pytest.raises(AnalyticExactUnsupported):
        invert_induced(induce(F))
    assert F.eval(0.0) - 0.0 == pytest.approx(0.3)


def test_descriptor_roundtrip():
    F = pl_new(1, HALF)
    d = F.to_descriptor()
    assert d == {
        "degree": 1,
        "variant": "pl",
        "breakpoints": [["0", "1/2"], ["1/2", "1"]],
    }
    assert map_from_descriptor(d) == F
    A = analytic_new(0.25, [(0.01, 1.0)])
    A2 = map_from_descriptor(A.to_descriptor())
    assert A2.alpha == A.alpha and A2.terms == A.terms
    with pytest.raises(ValueError):
        map_from_descriptor({"variant": "spline"})


def test_canonical_form_strips_collinear():
    # identity written with redundant breakpoints
    F = pl_new(1, [(0, 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2))])
    assert F == identity_lift(1)
    assert F.canonical_breakpoints() == ((Fraction(0), Fraction(0)),)


def test_equal_lifts_hash_equal_and_translate_by_zero_is_the_lift():
    # lifts are hashed by their canonical breakpoints, so the same function
    # written with other breakpoints is one set element; F + 0 is F itself
    F = rand_pl_lift(random.Random(7), 2, 4, 8)
    xs, ys = F.xs, F.ys
    mid = (xs[0] + xs[1]) / 2
    G = pl_new(2, [*zip(xs, ys), (mid, F.eval(mid))])
    assert len(G.xs) == len(xs) + 1 and G == F and hash(G) == hash(F)
    collinear = pl_new(1, [(0, 0), (Fraction(1, 3), Fraction(1, 3))])
    assert hash(collinear) == hash(identity_lift(1))
    assert len({F, G, collinear, identity_lift(1)}) == 2
    for zero in (0, Fraction(0), "0", "0/5"):
        assert F.translate(zero) is F
    assert F.translate(1) != F
    with pytest.raises(TypeError):
        F.translate(0.0)


def test_compose_and_inverse_match_reference_construction():
    rng = random.Random(2024)
    for i in range(150):
        n = 1 + i % 3
        F = rand_pl_lift(rng, n, rng.randint(1, 4 * n), rng.choice([4, 8, 12]))
        G = rand_pl_lift(rng, n, rng.randint(1, 4 * n), rng.choice([4, 8, 12]))
        F = F.translate(Fraction(rng.randint(-12, 12), 4))
        G = G.translate(Fraction(rng.randint(-12, 12), 3))
        for got, ref in ((F.compose(G), reference_compose(F, G)),
                         (G.compose(F), reference_compose(G, F)),
                         (F.inverse(), reference_inverse(F))):
            assert (got.xs, got.ys, got.slopes) == (ref.xs, ref.ys, ref.slopes)


def test_analytic_rejects_non_finite_data():
    for alpha, terms in (
        (float("nan"), ()),
        ("inf", ()),
        (0.1, [(float("nan"), 1.0)]),
        (0.1, [(0.01, float("inf"))]),
        (0.1, [(float("inf"), float("inf"))]),
    ):
        with pytest.raises(ValueError):
            analytic_new(alpha, terms)
    with pytest.raises(ValueError):
        map_from_descriptor({"degree": 1, "variant": "analytic", "alpha": "nan"})
    with pytest.raises(TypeError):
        map_from_descriptor([1, 2])


def _assert_same_lift(got, ref):
    check_table(got.degree, got._table)
    assert (got.xs, got.ys, got.slopes) == (ref.xs, ref.ys, ref.slopes)
    for vals in (got.xs, got.ys, got.slopes):
        assert type(vals) is tuple
        assert all(type(v) is Fraction for v in vals)


def test_integer_kernel_matches_fraction_reference():
    # a lift is its integer table; the xs, ys and slopes views, exact eval,
    # compose, power and the binary64 eval are checked against the Fraction
    # data and code the table replaced
    rng = random.Random(606)
    lifts = []
    for degree in range(1, 7):
        for nb in (1, 2, 3, 5, 8, 13, 40):
            den = max(8, -(-nb // degree) + 1)
            F = rand_pl_lift(rng, degree, nb, den)
            lifts.append(F.translate(Fraction(rng.randint(-9, 9), 4)))
            lifts.append(grid_lift(rng, degree, nb, den))
    for F in lifts:
        n, nb = F.degree, len(F.xs)
        R = RefLift.of(F)
        _assert_same_lift(F, R)
        G = rng.choice([L for L in lifts if L.degree == n])
        for A, B in ((F, G), (G, F), (F, F), (F, F.inverse())):
            _assert_same_lift(A.compose(B), RefLift.of(A).compose(RefLift.of(B)))
        qs = [-3, -2, -1, 0, 1, 2, 3, 5]
        if nb <= 3:
            qs += [16, 33, 64]
        elif nb <= 8:
            qs += [12]
        for q in qs:
            _assert_same_lift(F.power(q), R.power(q))
        _assert_same_lift(F.inverse(), R.inverse())
        # translate and shift_input against the Fraction data they move
        c = Fraction(rng.randint(-9 * n, 9 * n), rng.randint(1, 12))
        _assert_same_lift(F.translate(c), RefLift(n, F.xs, tuple(y + c for y in F.ys)))
        S = F.shift_input(c)
        check_table(n, S._table)
        for x in (0, Fraction(1, 3), *S.xs):
            assert S.eval(x) == R.eval(x + c) - c
        # descend undoes embed_degree, down to every divisor of the degree
        E = embed_degree(induce(F), n * rng.randint(2, 3)).base
        check_table(E.degree, E._table)
        assert E.descend(n) is not None
        for T in divisors(E.degree):
            D = E.descend(T)
            if D is not None:
                check_table(T, D._table)
                assert all(D.eval(x) == E.eval(x) for x in (0, *F.xs, *S.xs, *F.ys))
        xs = [rng.randint(-5 * n, 5 * n) for _ in range(6)]
        xs += [Fraction(rng.randint(-40 * n, 40 * n), rng.randint(1, 24)) for _ in range(12)]
        big = 10 ** rng.randint(30, 40)
        xs += [
            Fraction(rng.randint(-3 * n * big, 3 * n * big), big + rng.randint(0, 99))
            for _ in range(6)
        ]
        xs += list(F.xs) + [x + n for x in F.xs] + [x - 2 * n for x in F.xs]
        for x in xs:
            got = F.eval(x)
            assert type(got) is Fraction and got == R.eval(x)
        floats = [0.0, -1.5, 0.1, 2.75, n + 0.3, -7.25 * n, 1e-12, -1e-17, n - 2**-52, 1e15]
        for x in F.xs:
            f = float(x)
            floats += [f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
        for x in floats:
            got = F.eval(x)
            assert type(got) is float and got.hex() == R.eval(x).hex()


def test_eval_pair_is_the_reduced_fraction_value():
    # `plkernel.eval_pair` on a lift's forms returns exactly the reduced pair
    # of y_i + s_i (x - x_i) + j n on Fractions built from the table, for lifts
    # from breakpoints and for compose, power, inverse and embed_degree
    # outputs: on the wrap piece, with carries of both signs, on breakpoints
    # and past 1,000 bits.  `slope_changes` and `descend` compare pairs for
    # equality
    rng = random.Random(2401)
    lifts = [rand_pl_lift(rng, n, nb, 12) for n in (1, 2, 5) for nb in (1, 3, 8)]
    lifts += [grid_lift(rng, n, nb, 8) for n in (1, 2, 4) for nb in (1, 3, 6)]
    lifts += [big_lift(rng, n, nb, 1100) for n in (1, 3) for nb in (1, 4, 9)]
    for F in lifts[::2]:
        G = rng.choice([L for L in lifts if L.degree == F.degree])
        lifts += [F.compose(G), F.power(3), F.inverse()]
        lifts.append(embed_degree(induce(F), 2 * F.degree).base)
    seen = Counter()
    for F in lifts:
        n, table, forms = F.degree, F._table, F._forms
        assert len(forms) == len(table[0]) + 1
        columns = fraction_columns(table)
        xs = columns[0]
        wrap_mid = (xs[0] + xs[-1] - n) / 2  # on the wrap piece unless x_0 = 0
        points = [x + j * n for x in (*xs, wrap_mid) for j in (-2, -1, 0, 1, 2)]
        points += [Fraction(rng.randint(-7 * n, 7 * n), rng.randint(1, 30)) for _ in range(20)]
        for bits in (64, 1024, 1500):
            d = rng.randrange(1 << bits) + 1
            points += [Fraction(rng.randint(-3 * n * d, 3 * n * d), d) for _ in range(6)]
        for x in points:
            ref, i, j = piece_eval(n, columns, x)
            got = plkernel.eval_pair(table, forms, n, x.numerator, x.denominator)
            assert got == (ref.numerator, ref.denominator), (F, x)
            seen["wrap piece"] += i < 0
            seen["carry < 0"] += j < 0
            seen["carry > 0"] += j > 0
            seen["on a breakpoint"] += x - j * n in xs
            seen["past 1,000 bits"] += ref.denominator.bit_length() > 1000
    assert len(seen) == 5 and min(seen.values()) >= 200, seen


def test_shared_powers_match_separate_powers_and_reference(monkeypatch):
    # one chain of squares serves every pair pulled from a `last_pairs`
    # generator, in any order: the pairs' compositions equal separate `power`
    # calls and the Fraction reference, and the chain costs one composition
    # per square below the top one each q needs, plus one per further set bit
    # below the top one
    rng = random.Random(1414)
    lifts = [rand_pl_lift(rng, 1, 3, 8), grid_lift(rng, 2, 2, 8), rand_pl_lift(rng, 3, 3, 8)]
    for F in lifts:
        n, R, qs = F.degree, RefLift.of(F), list(range(65))
        rng.shuffle(qs)
        calls = count_compositions(monkeypatch)
        pairs = list(plkernel.last_pairs(n, F._table, qs))
        squares = max(q.bit_length() - 1 - (q & (q - 1) == 0) for q in qs if q > 1)
        assert len(calls) == squares + sum(bin(q).count("1") - 2 for q in qs if q & (q - 1))
        monkeypatch.undo()
        for q, (outer, inner) in zip(qs, pairs):
            table = outer if inner is None else plkernel.compose(n, outer, inner)
            check_table(n, table)
            assert table == plkernel.power(n, F._table, q)
            _assert_same_lift(PLLift._from_table(n, table), R.power(q))
        assert pairs[qs.index(1)][0] is F._table and pairs[qs.index(1)][1] is None


def test_power_of_two_costs_one_composition_per_squaring(monkeypatch):
    calls = count_compositions(monkeypatch)
    F = rand_pl_lift(random.Random(7), 2, 3, 8)
    for k in range(8):
        calls.clear()
        F.power(2**k)
        assert len(calls) == k


def test_powers_raise_past_the_cap_on_squares_and_products(monkeypatch):
    F = rand_pl_lift(random.Random(9), 1, 5, 12)
    m1 = len(F.xs)
    m2 = len(plkernel.power(1, F._table, 2)[0])
    m3 = len(plkernel.power(1, F._table, 3)[0])
    assert m1 < m2 < m3 and m2 <= 2 * m1 and m3 <= m1 + m2

    def capped(cap, call, *args):
        monkeypatch.setattr(plkernel, "BREAKPOINT_CAP", cap)
        return call(*args)

    # F^2 is the composition of the pair (F, F), F^3 that of (F, F^2), F^2 a
    # built square: a pair is refused when its two tables have more than the
    # cap's breakpoints together
    with pytest.raises(BreakpointCapExceeded):
        capped(2 * m1 - 1, plkernel.power, 1, F._table, 2)
    assert len(capped(2 * m1, plkernel.power, 1, F._table, 2)[0]) == m2
    with pytest.raises(BreakpointCapExceeded):
        capped(m1 + m2 - 1, plkernel.power, 1, F._table, 3)
    assert len(capped(m1 + m2, plkernel.power, 1, F._table, 3)[0]) == m3
    # F^4's pair is (F^2, F^2): the built square passes the cap on its own
    with pytest.raises(BreakpointCapExceeded):
        capped(m2 - 1, next, plkernel.last_pairs(1, F._table, (4,)))
    with pytest.raises(BreakpointCapExceeded):
        capped(2 * m2 - 1, next, plkernel.last_pairs(1, F._table, (4,)))
    assert capped(2 * m2, next, plkernel.last_pairs(1, F._table, (4,)))[0] is not F._table
    # F itself is never checked against the cap, F^0 is the identity
    assert capped(1, plkernel.power, 1, F._table, 1) is F._table
    assert capped(1, plkernel.power, 1, F._table, 0) == plkernel.IDENTITY


def test_periodic_sum_stops_at_the_breakpoint_cap():
    # the sum repeats the period-1 summand over the period 10^30: too many
    # breakpoints to build, reported before any is evaluated, by the
    # reference sum and by a tower sum on a tower that lp_build never saw
    a = PeriodicPL(1, [(0, 0), (Fraction(1, 2), Fraction(1, 4))])
    b = PeriodicPL(10**30, [(0, 0), (1, Fraction(1, 16))])
    with pytest.raises(BreakpointCapExceeded, match="breakpoints") as ref:
        periodic_add(a, b)
    with pytest.raises(BreakpointCapExceeded) as got:
        lp_truncate(LimitPeriodicHomeo((1, 10**30), (a, b)), 2)
    assert str(got.value) == str(ref.value)
