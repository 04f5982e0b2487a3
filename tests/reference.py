"""Independent references that the suite checks the library against.

The periodic references work on `PeriodicPL`'s Fraction views (`xs`, `vs`,
`slopes`) with `periodic_eval`, the Fraction-tuple evaluation that the
integer table replaced (a bisection over Fractions), and build every sum on
a Python set of Fraction grid points.  `reference_quotient` decides a
displacement's period and quotient map on Fractions alone, and `apply`,
`project`, `hull_dist`, `displacement` and `add_const` are the read path
on Fractions and floats, as it was before it ran on integer pairs.
`check_table` states the invariants of a `plkernel` table, `piece_eval`
evaluates one on Fractions, and `check_reduced` states what
`plkernel.fraction` takes on trust.
`fraction_pieces` builds breakpoint columns as the Fraction construction
that `circlemaps.exact_pair` and `plkernel.slopes` replaced did.  `RefLift`
is a lift as the Fraction-only kernel kept it, and `leftmost_return` scans
one of its powers for a return with no code of `plkernel`.
`reference_inverse` and `reference_compose` build a `PLLift`'s inverse and
composition from breakpoints and evaluations, as the lifts did before they
were built as tables, and `reference_sweep` is the certification that tried
every reduced p/q by denominator before the degree-1 Farey bracket.
"""
from __future__ import annotations

import bisect
from fractions import Fraction

from math import ceil, floor, gcd

from soldyn import (
    BreakpointCapExceeded,
    NotHomeomorphism,
    NotMonotone,
    PeriodicPL,
    PLLift,
    canonicalize,
    certify_rational,
    circlemaps,
    plkernel,
)
from soldyn.circlemaps import as_rational


def periodic_grid(d: PeriodicPL, T) -> set:
    """d's breakpoint abscissae repeated over [0, T); T a multiple of the period.
    Raises BreakpointCapExceeded past `plkernel.BREAKPOINT_CAP` of them,
    read at call time so that a test may lower it."""
    cap = plkernel.BREAKPOINT_CAP
    P = d.period
    reps = T // P
    if reps * len(d.xs) > cap:
        raise BreakpointCapExceeded(f"more than {cap} breakpoints over [0, {T})")
    return {x + j * P for j in range(reps) for x in d.xs}


def common_grid(a: PeriodicPL, b: PeriodicPL):
    """A common period T of a and b and the union of both grids over it.
    Raises BreakpointCapExceeded, as `periodic_grid` does, when either grid
    or their union passes the cap."""
    T = max(a.period, b.period)
    if T % a.period or T % b.period:
        raise ValueError(f"incommensurable periods {a.period}, {b.period}")
    points = periodic_grid(a, T) | periodic_grid(b, T)
    cap = plkernel.BREAKPOINT_CAP
    if len(points) > cap:
        raise BreakpointCapExceeded(f"more than {cap} breakpoints over [0, {T})")
    return T, points


def periodic_add(a: PeriodicPL, b: PeriodicPL) -> PeriodicPL:
    """Pointwise sum, on the union grid over the larger period, each value
    by two Fraction evaluations; the periods must be equal or one a multiple
    of the other."""
    T, points = common_grid(a, b)
    return PeriodicPL(T, [(x, periodic_eval(a, x) + periodic_eval(b, x)) for x in sorted(points)])


def sup_diff(a: PeriodicPL, b: PeriodicPL) -> Fraction:
    """Exact sup |a - b| over a common period."""
    _, points = common_grid(a, b)
    return max(abs(periodic_eval(a, x) - periodic_eval(b, x)) for x in points)


def periodic_eval(d: PeriodicPL, x):
    """delta(x) as the Fraction-tuple `PeriodicPL.eval` computed it: the
    piece found by bisecting `xs`, then v + (x - x_i) s on Fractions, which a
    binary64 x turns into binary64 operations on each coordinate rounded once."""
    T, xs, vs, slopes = d.period, d.xs, d.vs, d.slopes
    j = _floor_div(x, T)
    x0 = x - j * T if j else x
    i = bisect.bisect_right(xs, x0) - 1
    if i < 0:
        x1 = xs[-1] - T
        v1 = vs[-1]
    else:
        x1 = xs[i]
        v1 = vs[i]
    return v1 + (x0 - x1) * slopes[i]


def has_period(delta: PeriodicPL, T) -> bool:
    """Exact test whether delta(x + T) = delta(x) for all x.

    A continuous periodic PL function is determined by its slope-change
    points and their values, so T is a period exactly when shifting the
    canonical breakpoints by T (mod the stored period) gives the same set.
    A constant function has no such points and every period.
    """
    T = as_rational(T)
    if T <= 0:
        raise ValueError("candidate period must be positive")
    canon = delta.canonical_breakpoints()
    return {((x - T) % delta.period, v) for x, v in canon} == set(canon)


def lp_partial_sum_check(summands) -> None:
    """The truncation check of a valid tower by building values: each partial
    sum S_j = delta_1 + ... + delta_j with `periodic_add`, refused at the
    first whose least slope is <= -1.  `periodic_add` raises
    BreakpointCapExceeded before it evaluates a grid past the cap."""
    partial = None
    for d in summands:
        partial = d if partial is None else periodic_add(partial, d)
        if min(partial.slopes) <= -1:
            raise NotHomeomorphism(
                "partial displacement sum has slope <= -1; id + sum not increasing"
            )


def lp_sup_gaps(h) -> list[Fraction]:
    """sup |h - h_j| for j = 1..m by the chain of suffix sums delta_m,
    delta_{m-1} + delta_m, ..., delta_2 + ... + delta_m, each the sup of
    its breakpoint values; level m gives 0."""
    gaps, tail = [Fraction(0)], None
    for d in reversed(h.summands[1:]):
        tail = d if tail is None else periodic_add(d, tail)
        gaps.append(max(abs(v) for v in tail.vs))
    return gaps[::-1]


def lp_truncation_lift(h, level: int):
    """The degree-T_level lift of x + S(x), S = delta_1 + ... + delta_level
    built by the chain of prefix sums."""
    S = h.summands[0]
    for d in h.summands[1:level]:
        S = periodic_add(S, d)
    return displacement_lift(S, h.tower[level - 1])


def displacement_lift(delta: PeriodicPL, period: int) -> PLLift:
    """The degree-`period` lift of x + delta(x): delta's table cut by `plkernel.descend`.
    Raises ValueError unless `period` is a period of delta dividing its stored
    period, and NotMonotone unless the lift is strictly increasing."""
    table = plkernel.descend(delta.period, delta._table, period)
    if table is None:
        raise ValueError(f"{period} is not a period of delta dividing {delta.period}")
    if min(table[4]) <= 0:  # a continuous PL map increases iff its slopes are positive
        raise NotMonotone("x + delta(x) is not strictly increasing")
    return PLLift._from_table(period, table)


def reference_quotient(delta: PeriodicPL, n: int):
    """(T, g) decided on the Fraction displacement alone: T the first divisor
    of n that `has_period` accepts, g built by the checked PLLift constructor
    from delta's canonical breakpoints reduced mod T, plus 0."""
    T = next(T for T in circlemaps.divisors(n) if has_period(delta, T))
    xs = sorted({x % T for x, _ in delta.canonical_breakpoints()} | {Fraction(0)})
    return T, PLLift(T, [(x, x + periodic_eval(delta, x)) for x in xs])


def apply(f, s):
    """The induced map f at the solenoid point s, by the lift's `eval` and
    `canonicalize`, as the read path was before it ran on integer pairs."""
    r = s.k.residue(f.degree)
    return canonicalize(f.base.eval(s.x + r) - r + f.offset, s.k)


def project(s, n: int):
    """The level-n coordinate of s, (x + k mod n) mod n, in the type of x."""
    return (s.x + s.k.residue(n)) % n


def hull_dist(a, b) -> Fraction:
    """The arc distance of two hull points' parameters on R/TZ, on Fractions."""
    T = a.hull.period
    d = (a.param - b.param) % T
    return min(d, T - d)


def displacement(F: PLLift) -> PeriodicPL:
    """F - id by the checked constructor, from F's Fraction breakpoints."""
    return PeriodicPL(F.degree, [(x, y - x) for x, y in zip(F.xs, F.ys)])


def add_const(delta: PeriodicPL, c) -> PeriodicPL:
    """delta + c by the checked constructor."""
    return PeriodicPL(delta.period, [(x, v + c) for x, v in zip(delta.xs, delta.vs)])


def check_table(n: int, table) -> None:
    """Raise AssertionError unless `table` is a valid degree-n lift table (see
    `plkernel`): six equally long columns of reduced pairs with positive
    denominators, abscissae strictly increasing in [0, n), values strictly
    increasing and spanning less than n, and each slope the secant of its
    piece, the last piece ending at the first breakpoint plus (n, n).  The
    checks raise rather than assert, so `python -O` keeps them."""
    xn, xd, yn, yd, sn, sd = table
    m = len(xn)

    def require(ok, what):
        if not ok:
            raise AssertionError(f"degree-{n} table, {m} breakpoints: {what}")

    require(m >= 1 and all(len(col) == m for col in table), "column lengths")
    for name, nums, dens in (("abscissa", xn, xd), ("value", yn, yd), ("slope", sn, sd)):
        for i, (a, b) in enumerate(zip(nums, dens)):
            require(b > 0 and gcd(a, b) == 1, f"{name} {i} is not a reduced pair: {a}/{b}")
    require(0 <= xn[0] and xn[-1] < n * xd[-1], "abscissae outside [0, n)")
    for i in range(m - 1):
        require(xn[i] * xd[i + 1] < xn[i + 1] * xd[i], f"abscissae {i}, {i + 1} not increasing")
        require(yn[i] * yd[i + 1] < yn[i + 1] * yd[i], f"values {i}, {i + 1} not increasing")
    require(yn[-1] * yd[0] < (yn[0] + n * yd[0]) * yd[-1], "values span n or more")
    for i in range(m):
        j = (i + 1) % m
        wrap = 0 if j else n
        run = Fraction(xn[j], xd[j]) + wrap - Fraction(xn[i], xd[i])
        rise = Fraction(yn[j], yd[j]) + wrap - Fraction(yn[i], yd[i])
        require(Fraction(sn[i], sd[i]) == rise / run, f"slope {i} is not its secant")


def fraction_columns(table) -> tuple[list, list, list]:
    """The abscissae, values and slopes of a `plkernel` table as Fractions,
    each built by `Fraction(n, d)`."""
    return tuple([Fraction(a, b) for a, b in zip(table[k], table[k + 1])] for k in (0, 2, 4))


def fraction_pieces(period, breakpoints, rise) -> tuple[list, list, list]:
    """The abscissae, values and piece slopes of `breakpoints` read by
    `Fraction` and sorted as (x, y) pairs, each slope a Fraction quotient:
    the last piece ends at the first abscissa plus `period`, where the
    value has risen by `rise`."""
    pts = sorted((Fraction(x), Fraction(y)) for x, y in breakpoints)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    ends = zip(xs[1:] + [xs[0] + period], ys[1:] + [ys[0] + rise])
    return xs, ys, [(y1 - y) / (x1 - x) for x, y, (x1, y1) in zip(xs, ys, ends)]


def piece_eval(n: int, columns, x: Fraction) -> tuple[Fraction, int, int]:
    """(F(x), i, j) for the degree-n lift with `fraction_columns` `columns`
    at an exact x: j = floor(x / n), i is the last breakpoint at most
    x - j n, or -1 for the wrap piece from x_{m-1} - n, and
    F(x) = y_i + s_i (x - j n - x_i) + j n."""
    xs, ys, slopes = columns
    j = floor(x / n)
    x0 = x - j * n
    i = bisect.bisect_right(xs, x0) - 1
    xi, yi = (xs[i], ys[i]) if i >= 0 else (xs[-1] - n, ys[-1] - n)
    return yi + slopes[i] * (x0 - xi) + j * n, i, j


def check_reduced(value) -> None:
    """Raise AssertionError unless `value` is a Fraction whose pair is reduced
    with a positive denominator, as `Fraction(n, d)` would have made it."""
    if type(value) is not Fraction:
        raise AssertionError(f"{value!r} is a {type(value).__name__}, not a Fraction")
    a, b = value.numerator, value.denominator
    if b <= 0 or gcd(a, b) != 1:
        raise AssertionError(f"{a}/{b} is not a reduced pair with a positive denominator")


class RefLift:
    """Fraction breakpoint data of a lift, as the Fraction-only kernel kept
    it, with its Fraction eval, compose, inverse and power."""

    def __init__(self, degree, xs, ys):
        def slope(x0, y0, x1, y1):
            xd0, xd1, yd0, yd1 = x0.denominator, x1.denominator, y0.denominator, y1.denominator
            return Fraction(
                (y1.numerator * yd0 - y0.numerator * yd1) * (xd0 * xd1),
                (x1.numerator * xd0 - x0.numerator * xd1) * (yd0 * yd1),
            )

        slopes = [slope(xs[i], ys[i], xs[i + 1], ys[i + 1]) for i in range(len(xs) - 1)]
        slopes.append(slope(xs[-1], ys[-1], xs[0] + degree, ys[0] + degree))
        self.degree, self.xs, self.ys, self.slopes = degree, xs, ys, tuple(slopes)

    @classmethod
    def of(cls, F):
        return cls(F.degree, F.xs, F.ys)

    def eval(self, x):
        n = self.degree
        j = _floor_div(x, n)
        x0 = x - j * n if j else x
        i = bisect.bisect_right(self.xs, x0) - 1
        if i < 0:
            x1 = self.xs[-1] - n
            y1 = self.ys[-1] - n
            s = self.slopes[-1]
        else:
            x1 = self.xs[i]
            y1 = self.ys[i]
            s = self.slopes[i]
        return y1 + (x0 - x1) * s + j * n

    def compose(self, other):
        n = self.degree
        pts = {x: self.eval(y) for x, y in zip(other.xs, other.ys)}
        oxs, oys, oslopes = other.xs, other.ys, other.slopes
        y0 = oys[0]
        for u, v in zip(self.xs, self.ys):
            m = _floor_div(u - y0, n)
            w = u - m * n if m else u
            i = bisect.bisect_right(oys, w) - 1
            z = oxs[i] + (w - oys[i]) / oslopes[i]
            if z >= n:
                z -= n
                m += 1
            pts[z] = v - m * n if m else v
        xs = tuple(sorted(pts))
        return RefLift(n, xs, tuple(pts[x] for x in xs))

    def inverse(self):
        n = self.degree
        xs, ys = self.xs, self.ys
        j = _floor_div(ys[0], n)
        lo, hi = j * n, (j + 1) * n
        cut = bisect.bisect_left(ys, hi)
        new_xs = [y - hi for y in ys[cut:]] + [y - lo if j else y for y in ys[:cut]]
        new_ys = [x - hi for x in xs[cut:]] + [x - lo if j else x for x in xs[:cut]]
        return RefLift(n, tuple(new_xs), tuple(new_ys))

    def power(self, q):
        if q < 0:
            return self.inverse().power(-q)
        # the lowest set bit of q takes its square as is: no identity factor
        result, base = None, self
        while q:
            if q & 1:
                result = base if result is None else result.compose(base)
            q >>= 1
            if q:
                base = base.compose(base)
        return RefLift(self.degree, (Fraction(0),), (Fraction(0),)) if result is None else result


def _floor_div(x, n):
    if isinstance(x, Fraction):
        return x.numerator // (x.denominator * n)
    if isinstance(x, int):
        return x // n
    return floor(x / n)


def leftmost_return(G, p):
    """The leftmost zero of G(x) - x - p in [0, n) for a `RefLift` G, or
    None: Fraction values at the breakpoints and at 0 and n, and the zero of
    the chord between two of opposite sign."""
    n = G.degree
    xs = sorted({Fraction(0), *G.xs})
    gs = [G.eval(x) - x - p for x in xs]
    for (a, ga), (b, gb) in zip(zip(xs, gs), zip(xs[1:] + [xs[0] + n], gs[1:] + gs[:1])):
        if ga == 0:
            return a
        if ga * gb < 0:
            return a - ga * (b - a) / (gb - ga)
    return None


def reference_inverse(F: PLLift) -> PLLift:
    """The previous inverse: reduce every breakpoint pair, then validate and sort."""
    n = F.degree
    pts = []
    for x, y in zip(F.xs, F.ys):
        j = y.numerator // (y.denominator * n)
        pts.append((y - j * n, x - j * n))
    return PLLift(n, pts)


def reference_compose(F: PLLift, G: PLLift) -> PLLift:
    """The previous composition: evaluate F(G(x)) on the merged breakpoint set."""
    n = F.degree
    xs = set(G.xs)
    inv = reference_inverse(G)
    for u in F.xs:
        z = inv.eval(u)
        xs.add(z - (z.numerator // (z.denominator * n)) * n)
    return PLLift(n, [(x, F.eval(G.eval(x))) for x in sorted(xs)])


def reference_sweep(F: PLLift, lo, hi, max_den: int):
    """The previous certification: every reduced p/q in [lo, hi], by denominator."""
    for den in range(1, max_den + 1):
        for num in range(ceil(lo * den), floor(hi * den) + 1):
            if gcd(num, den) == 1:
                wit = certify_rational(F, num, den)
                if wit is not None:
                    return Fraction(num, den), wit
    return None
