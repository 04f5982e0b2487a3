"""`plkernel.fraction`, which builds a Fraction from a pair it does not reduce.

It is checked against `Fraction(n, d)`, and every Fraction the library
builds through it is checked to be reduced.  The evaluation by per-piece
forms that feeds it is checked in `test_circlemaps`
(`test_eval_pair_is_the_reduced_fraction_value`).  `plkernel.offset_sign`
is checked at exact ties, where its cross-multiplications compare equal.
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

from soldyn import (
    SolenoidPoint,
    apply,
    divisors,
    embed_degree,
    embed_int,
    induce,
    pl_new,
    plkernel,
    project,
)
from soldyn.dynamics import _leftmost_return
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
    # returns on a breakpoint and inside a piece, scanned from either side
    returns = Counter()
    for F in lifts:
        n = F.degree
        for q in (1, 2):
            table = plkernel.power(n, F._table, q, 10**4)
            xn, xd, yn, yd = table[:4]
            disp = [Fraction(c, d) - Fraction(a, b) for a, b, c, d in zip(xn, xd, yn, yd)]
            for p in range(math.floor(min(disp)), math.ceil(max(disp)) + 1):
                for rightmost in (False, True):
                    w = _leftmost_return(n, table, p, rightmost)
                    if w is not None:
                        check_reduced(w)
                        returns[(w.numerator, w.denominator) in zip(xn, xd)] += 1
    assert returns[True] >= 20 and returns[False] >= 20, returns


def test_interpreter_smoke_script_gives_its_pinned_digest():
    # the stdlib-only script that checks other interpreters, run under this one
    done = run_python(str(SMOKE))
    assert done.returncode == 0, done.stdout + done.stderr


def test_offset_sign_is_0_when_f_minus_id_meets_the_offset_exactly():
    # F - id equals c = 1/3 at one breakpoint and lies strictly below c at
    # the others, then strictly above (the mirror case): wherever the tie
    # falls, no strict sign holds at every breakpoint
    c, step = Fraction(1, 3), Fraction(1, 12)
    xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
    for side in (-1, 1):
        for tie in range(len(xs)):
            gaps = [c if i == tie else c + side * step for i in range(len(xs))]
            F = pl_new(1, [(x, x + g) for x, g in zip(xs, gaps)])
            assert plkernel.offset_sign(F._table, 1, 3) == 0, (side, tie)
        # moved off the tie, F - id is strictly on one side of c
        F = pl_new(1, [(x, x + c + side * step) for x in xs])
        assert plkernel.offset_sign(F._table, 1, 3) == side
