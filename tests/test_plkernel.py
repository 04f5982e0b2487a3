"""`plkernel.fraction`, which builds a Fraction from a pair it does not reduce.

It is checked against `Fraction(n, d)`, and every Fraction the library
builds through it is checked to be reduced.  The evaluation by per-piece
forms that feeds it is checked in `test_circlemaps`
(`test_eval_pair_is_the_reduced_fraction_value`).  `plkernel.first_return`
is checked on walks of products that are never built against the scan of
the same products built, and the bracket rule that reads its miss range at
exact ties, where its cross-multiplications compare equal.  The one
breakpoint cap, `plkernel.BREAKPOINT_CAP`, is set once and checked at the
margin of every site that reads it, and its three messages are pinned.
"""
import copy
import math
import operator
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from soldyn import (
    BreakpointCapExceeded,
    LimitPeriodicHomeo,
    PeriodicPL,
    PLLift,
    SolenoidPoint,
    apply,
    certify_rational,
    dynamics,
    divisors,
    embed_degree,
    embed_int,
    induce,
    lp_build,
    lp_truncate,
    pl_new,
    plkernel,
    project,
    rational_certificate,
    rotation_lift,
    rotation_report,
)
from genutil import big_lift, grid_lift, rand_pl_lift, run_python
from reference import check_reduced

SMOKE = Path(__file__).resolve().parent / "interpreter_smoke.py"


def _reduced_pairs(rng):
    pairs = [(0, 1), (1, 1), (-1, 1), (-7, 3), (5, 12), (-(1 << 1200) - 1, 3)]
    for bits in (8, 64, 1100, 1500):
        for _ in range(40):
            d = rng.randrange(1, 1 << bits)
            n = rng.randint(-(1 << bits), 1 << bits)
            g = gcd(n, d)
            pairs.append((n // g, d // g))
    return pairs


def test_fraction_is_the_checked_constructor_on_reduced_pairs():
    # zero, negative numerators and pairs past 1,000 bits: the same value,
    # type, hash and text as Fraction(n, d), through arithmetic, copy and pickle
    rng = random.Random(2501)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
           operator.lt, operator.eq)
    for n, d in _reduced_pairs(rng):
        got, ref = plkernel.fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (n, d) == (ref.numerator, ref.denominator)
        assert got == ref and hash(got) == hash(ref)
        assert (str(got), repr(got)) == (str(ref), repr(ref))
        other = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99))
        for op in ops:
            assert op(got, other) == op(ref, other)
            if ref or op not in (operator.truediv, operator.floordiv):
                assert op(other, got) == op(other, ref)
        assert -got == -ref and abs(got) == abs(ref) and got ** 2 == ref ** 2
        assert int(got) == int(ref) and round(got) == round(ref)
        if abs(ref) < 1 << 1000:
            assert float(got) == float(ref)
        for twin in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert type(twin) is Fraction and twin == ref and hash(twin) == hash(ref)
        assert {got: 1}[ref] == 1


def _lifts(rng):
    base = [rand_pl_lift(rng, n, nb, 12) for n in (1, 2, 3, 5) for nb in (1, 2, 4, 8)]
    base += [grid_lift(rng, n, nb, 8) for n in (1, 2, 4) for nb in (1, 3, 6)]
    base += [big_lift(rng, n, nb, 1100) for n in (1, 3) for nb in (1, 4)]
    derived = []
    for F in base[::2]:
        G = rng.choice([L for L in base if L.degree == F.degree])
        derived += [F.compose(G), F.power(3), F.inverse()]
        derived.append(embed_degree(induce(F), 2 * F.degree).base)
    return base + derived


def _points(rng, F):
    n, xs = F.degree, F.xs
    wrap_mid = (xs[0] + xs[-1] - n) / 2  # inside the wrap piece unless x_0 = 0
    pts = [x + j * n for x in (*xs, wrap_mid, Fraction(0)) for j in (-2, -1, 0, 1, 2)]
    pts += [Fraction(rng.randint(-5 * n * 30, 5 * n * 30), rng.randint(1, 30)) for _ in range(20)]
    for bits in (64, 1100):
        d = rng.randrange(1 << bits) + 1
        pts += [Fraction(rng.randint(-3 * n * d, 3 * n * d), d) for _ in range(6)]
    return pts


def test_trusted_fractions_are_reduced():
    # every Fraction built by plkernel.fraction is a reduced pair with a
    # positive denominator, at each call site that hands it one
    rng = random.Random(2503)
    lifts = _lifts(rng)
    for F in lifts:
        D = F.displacement()
        for v in (*F.xs, *F.ys, *F.slopes, *D.xs, *D.vs, *D.slopes):
            check_reduced(v)
        for x, y in F.canonical_breakpoints():
            check_reduced(x)
            check_reduced(y)
        for x in _points(rng, F)[::5]:
            check_reduced(F.eval(x))
            check_reduced(F.iterate_eval(x, 3))
    for F in lifts[:40]:
        f = induce(F, rng.randint(-2, 2))
        if 40320 % f.degree:
            continue
        for _ in range(8):
            s = SolenoidPoint(Fraction(rng.randrange(97), 97), embed_int(rng.randrange(40320), 8))
            t = apply(f, s)
            check_reduced(t.x)
            for d in divisors(f.degree):
                check_reduced(project(t, d).value)
                check_reduced(project(s, d).value)
    # returns on a breakpoint and inside a piece, scanned from either side,
    # on a built table's rows and on the walk of F o F, never built; a miss
    # range is two reduced pairs
    returns = Counter()
    for F in lifts:
        n = F.degree
        for q in (1, 2):
            table = plkernel.power(n, F._table, q)
            xn, xd, yn, yd = table[:4]
            disp = [Fraction(c, d) - Fraction(a, b) for a, b, c, d in zip(xn, xd, yn, yd)]
            for p in range(math.floor(min(disp)), math.ceil(max(disp)) + 1):
                for rightmost in (False, True):
                    for points in _scans(n, F._table, q, table):
                        w = plkernel.first_return(n, points, p, rightmost)
                        if isinstance(w, Fraction):
                            check_reduced(w)
                            returns[(w.numerator, w.denominator) in zip(xn, xd)] += 1
                        else:
                            for pair in w:
                                check_reduced(plkernel.fraction(*pair))
    assert returns[True] >= 20 and returns[False] >= 20, returns


def test_interpreter_smoke_script_gives_its_pinned_digest():
    # the stdlib-only script that checks other interpreters, run under this one
    done = run_python(str(SMOKE))
    assert done.returncode == 0, done.stdout + done.stderr


def _scans(n, table, q, built):
    """Points for `first_return`: the rows of F^q built, and the walk of the
    pair `last_pairs` gives, never built, when F^q is a product."""
    outer, inner = next(plkernel.last_pairs(n, table, (q,)))
    yield plkernel.rows(n, built)
    if inner is not None:
        yield plkernel.walk(n, outer, inner, True)


def test_walked_pairs_return_what_their_built_products_return():
    # lifts of degree 1-6, q <= 24 and p across the displacement range: the
    # walk of the last pair gives the witness of both scans and the miss
    # range of the built product, which is min and max of G - id
    rng = random.Random(2701)
    seen = Counter()
    for i in range(36):
        n = 1 + i % 6
        F = rand_pl_lift(rng, n, rng.randint(1, 2 * n), rng.choice([4, 6, 8]))
        if i % 3 == 2:
            F = F.translate(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for q in sorted(rng.sample(range(2, 25), 3)):
            G = plkernel.power(n, F._table, q)
            xn, xd, yn, yd = G[:4]
            disp = [Fraction(c, d) - Fraction(a, b) for a, b, c, d in zip(xn, xd, yn, yd)]
            for p in range(math.floor(min(disp)) - 1, math.ceil(max(disp)) + 2):
                for rightmost in (False, True):
                    built, walked = (plkernel.first_return(n, pts, p, rightmost)
                                     for pts in _scans(n, F._table, q, G))
                    assert walked == built, (F, q, p, rightmost)
                    if isinstance(built, Fraction):
                        seen["return"] += 1
                    else:
                        lo, hi = (Fraction(*pair) for pair in built)
                        assert (lo, hi) == (min(disp), max(disp))
                        seen["miss"] += 1
    assert seen["return"] >= 400 and seen["miss"] >= 400, seen


def test_an_end_that_ties_the_first_scans_range_is_still_tested(monkeypatch):
    # F - id runs over [1/3, 1/2], so the end 0 has no return and its scan
    # gives that range: a second end that meets it exactly, at either side,
    # is scanned, and one strictly outside it is ruled out unscanned
    third, half = Fraction(1, 3), Fraction(1, 2)
    F = pl_new(1, [(0, third), (Fraction(1, 4), Fraction(3, 4)), (half, half + Fraction(5, 12))])
    assert plkernel.first_return(1, plkernel.rows(1, F._table), 0) == ((1, 3), (1, 2))
    scans = []
    first_return = plkernel.first_return
    monkeypatch.setattr(plkernel, "first_return", lambda *a: scans.append(a[2]) or first_return(*a))
    for end, tested in ((third, True), (half, True), (Fraction(2, 7), False), (Fraction(4, 7), False)):
        scans.clear()
        dynamics._certify_bracket(F, Fraction(0), end, Fraction(-1), Fraction(2), 10)
        assert scans == ([0, end.numerator] if tested else [0]), end


def test_miss_range_is_exact_where_extremes_agree_to_64_bits():
    # G - id at a later breakpoint beats the running minimum (maximum) by
    # 2^-80, so floor(2^64 (G - id)) ties and only the cross-multiplication
    # can tell them apart; there is no return at p = 0
    eps = Fraction(1, 2**80)
    gaps = [Fraction(1, 3), Fraction(1, 4) + 2 * eps, Fraction(1, 4) + eps,
            Fraction(1, 2) - 2 * eps, Fraction(1, 2) - eps]
    F = pl_new(1, [(Fraction(i, 8), Fraction(i, 8) + g) for i, g in enumerate(gaps)])
    lo, hi = plkernel.first_return(1, plkernel.rows(1, F._table), 0)
    assert (Fraction(*lo), Fraction(*hi)) == (Fraction(1, 4) + eps, Fraction(1, 2) - eps)
    walked = plkernel.first_return(1, plkernel.walk(1, plkernel.IDENTITY, F._table, True), 0)
    assert walked == (lo, hi)


def _padded_rotation(n, alpha, S):
    """x -> x + alpha at degree n, with a breakpoint at i/9 for each i in S."""
    return pl_new(n, [(Fraction(i, 9), Fraction(i, 9) + alpha) for i in S])


def test_one_cap_bounds_every_site_at_its_margin(monkeypatch):
    # the cap is set once, in plkernel; each site reads it there, so an input
    # whose count is the cap passes and one whose count is the cap plus one
    # raises, whichever module the site is in
    cap = 12
    monkeypatch.setattr(plkernel, "BREAKPOINT_CAP", cap)
    third = Fraction(1, 3)
    # F^3 is composed from the pair (F, F^2): 5 + 7 breakpoints, then 5 + 8
    at, past = _padded_rotation(1, third, (0, 1, 2, 3, 6)), _padded_rotation(1, third, range(5))
    for F, count in ((at, cap), (past, cap + 1)):
        assert len(F.xs) + len(plkernel.compose(1, F._table, F._table)[0]) == count
    assert at.power(3) == rotation_lift(1)
    assert certify_rational(at, 1, 3) == 0
    assert rotation_report(at, 3).exact == third
    for call in (lambda: past.power(3), lambda: certify_rational(past, 1, 3),
                 lambda: rotation_report(past, 3)):
        with pytest.raises(BreakpointCapExceeded, match=f"^more than {cap} breakpoints$"):
            call()
    # the degree-2 sweep builds F^2 = F o F, with 12 and then 13 breakpoints
    at, past = _padded_rotation(2, third, range(9)), _padded_rotation(2, third, range(10))
    assert rational_certificate(at, third, third, 2) is None
    with pytest.raises(BreakpointCapExceeded, match=f"^more than {cap} breakpoints$"):
        rational_certificate(past, third, third, 2)
    # 12 and 13 copies of a one-breakpoint table
    f = induce(rotation_lift(third))
    assert embed_degree(f, cap).degree == cap
    with pytest.raises(BreakpointCapExceeded, match=f"to more than {cap} breakpoints$"):
        embed_degree(f, cap + 1)
    # a one-breakpoint summand of period 1 repeated over [0, 12) and [0, 13)
    one = PeriodicPL(1, [(0, Fraction(1, 8))])
    at, past = (one, PeriodicPL(cap, [(0, 0)])), (one, PeriodicPL(cap + 1, [(0, 0)]))
    assert lp_build((1, cap), at).levels == 2
    assert lp_truncate(LimitPeriodicHomeo((1, cap), at), 2)[0].degree == cap
    message = f"^more than {cap} breakpoints over \\[0, {cap + 1}\\)$"
    with pytest.raises(BreakpointCapExceeded, match=message):
        lp_build((1, cap + 1), past)
    with pytest.raises(BreakpointCapExceeded, match=message):
        lp_truncate(LimitPeriodicHomeo((1, cap + 1), past), 2)
    # sup_gaps sums the tail delta_2 + delta_3, a period-1 summand repeated
    # over [0, 12) and [0, 13) with a breakpoint of the top one's
    at, past = (one, *at), (one, *past)
    assert LimitPeriodicHomeo((1, 1, cap), at).sup_gaps() == [Fraction(1, 8), 0, 0]
    with pytest.raises(BreakpointCapExceeded, match=message):
        LimitPeriodicHomeo((1, 1, cap + 1), past).sup_gaps()


def test_cap_messages_at_the_default_cap():
    # a lift whose columns are ranges has a length and no memory: the power
    # and sweep checks read only lengths, so they refuse it before composing
    def lift(n, m):
        F = PLLift.__new__(PLLift)
        F.degree, F._table, F._forms = n, (range(m),) * 6, None
        return F

    big = lift(1, 500_001)
    for call in (lambda: big.power(2), lambda: certify_rational(big, 1, 2),
                 lambda: rational_certificate(lift(2, 10**6 + 1), Fraction(0), Fraction(0), 1)):
        with pytest.raises(BreakpointCapExceeded) as exc:
            call()
        assert str(exc.value) == "more than 1000000 breakpoints"
    with pytest.raises(BreakpointCapExceeded) as exc:
        embed_degree(induce(rotation_lift(0)), 10**6 + 1)
    assert str(exc.value) == "degree 1000001 would copy the table to more than 1000000 breakpoints"
    T = 10**6 + 1
    summands = (PeriodicPL(1, [(0, 0)]), PeriodicPL(T, [(0, 0)]))
    for call in (lambda: lp_build((1, T), summands),
                 lambda: lp_truncate(LimitPeriodicHomeo((1, T), summands), 2)):
        with pytest.raises(BreakpointCapExceeded) as exc:
            call()
        assert str(exc.value) == "more than 1000000 breakpoints over [0, 1000001)"
