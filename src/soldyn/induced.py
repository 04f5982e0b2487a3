"""Induced homeomorphisms of the solenoid and their degree structure.

A degree-n induced map is stored as a base lift F0 of degree n plus an
integer offset (the integer-translation component).  Its lift acts on
covering coordinates by

    F_k(x) = F0(x + r(k)) - r(k) + offset,   r(k) = residue(k, n),

which is the equivariance-consistent reading of the induced-lift normal
form: it satisfies F_{k-t}(x + t) = F_k(x) + t exactly and covers the
circle map u -> F0(u) + offset (mod d) at every level d that the
displacement's minimal period T divides.  `hull.leaf_quotient` decides T on
the table of the leaf lift F0 + offset = id + delta and cuts it to g there.

`apply` maps an exact point under a PL base on integer pairs, and its
reduced image pair becomes a Fraction with no second gcd; binary64 points
and analytic bases take the float path.

A map's points are checked where they enter, by `SolenoidPoint` and
`ProfiniteInt`.  `apply`, `cover_eval` and `InducedHomeo.fiber_lift` read
r(k) through `ProfiniteInt.residue`, which raises DepthExceeded unless the
degree divides depth!.  The image points `apply` builds, and the carries
into their fibers, come from values already reduced and are not checked
again (`SolenoidPoint._trusted`, `ProfiniteInt._trusted`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import plkernel
from .circlemaps import (
    AnalyticLift,
    CircleLift,
    PeriodicPL,
    PLLift,
    _pl,
    as_rational,
    identity_lift,
    json_int,
    map_from_descriptor,
    rotation_lift,
)
from .errors import NotDivisorChain, NotHomeomorphism, NotMultiple
from .profinite import ProfiniteInt
from .solenoid import SolenoidPoint, canonicalize


@dataclass(frozen=True)
class InducedHomeo:
    """Degree-n induced homeomorphism: base lift plus integer offset."""

    base: CircleLift
    offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", int(self.offset))

    @property
    def degree(self) -> int:
        return self.base.degree

    def leaf_lift(self) -> CircleLift:
        """The lift at the zero fiber: F0 + offset."""
        if isinstance(self.base, AnalyticLift):
            return AnalyticLift(
                self.base.alpha + self.offset, self.base.terms, self.base.degree
            )
        return self.base.translate(self.offset)

    def fiber_lift(self, k: ProfiniteInt) -> CircleLift:
        """The lift F_k at a given fiber coordinate."""
        r = k.residue(self.degree)
        if r == 0:
            return self.leaf_lift()
        return _pl(self.base, "fiber lifts need a PL base").shift_input(r).translate(self.offset)

    def to_descriptor(self) -> dict:
        return {
            "degree": self.degree,
            "offset": self.offset,
            "lift": self.base.to_descriptor(),
        }


def induce(base: CircleLift, offset: int = 0) -> InducedHomeo:
    return InducedHomeo(base, offset)


def identity_homeo(degree: int = 1) -> InducedHomeo:
    return InducedHomeo(identity_lift(degree), 0)


def translation_homeo(m: int, degree: int = 1) -> InducedHomeo:
    """Translation by sigma(m), an element of the integer-translation kernel."""
    return InducedHomeo(identity_lift(degree), m)


def cover_eval(f: InducedHomeo, x, k: ProfiniteInt):
    """F_k(x) on covering coordinates."""
    n = f.degree
    r = k.residue(n)
    return f.base.eval(x + r) - r + f.offset


def apply(f: InducedHomeo, s: SolenoidPoint) -> SolenoidPoint:
    """Apply the homeomorphism: act leafwise, fiber unchanged, recanonicalize.

    An exact x = a/b on a PL base: F0 at (a + r b)/b on the lift's forms, then
    offset - r and the carry into k on integers, all reduced pairs."""
    n = f.degree
    k = s.k
    r = k.residue(n)
    x = s.x
    if isinstance(x, Fraction) and isinstance(f.base, PLLift):
        b = x.denominator
        num, den = plkernel.eval_pair(f.base._table, f.base._forms, n, x.numerator + r * b, b)
        num += (f.offset - r) * den
        t = num // den
        if t:
            num -= t * den
            m = k.modulus
            k = ProfiniteInt._trusted((k.value + t) % m, k.depth, m)
        return SolenoidPoint._trusted(plkernel.fraction(num, den), k)
    return canonicalize(f.base.eval(x + r) - r + f.offset, k)


def apply_iter(f: InducedHomeo, s: SolenoidPoint, q: int) -> SolenoidPoint:
    for _ in range(q):
        s = apply(f, s)
    return s


def displacement_at(f: InducedHomeo, k: ProfiniteInt) -> PeriodicPL:
    """The displacement at fiber k: x -> delta0(x + r(k)) + offset."""
    delta = leaf_displacement(f)
    r = k.residue(f.degree)
    return delta.translate(r) if r else delta


def leaf_displacement(f: InducedHomeo) -> PeriodicPL:
    """Displacement at the zero fiber (any depth): leaf lift minus id."""
    _pl(f.base, "exact displacement needs a PL base")
    return f.leaf_lift().displacement()


def embed_degree(f: InducedHomeo, m: int) -> InducedHomeo:
    """Direct-limit inclusion: reinterpret a degree-n map at degree m, n | m.
    Raises BreakpointCapExceeded, before copying, when the m/n copies of the
    table would pass `plkernel.BREAKPOINT_CAP` breakpoints."""
    n = f.degree
    if m % n != 0:
        raise NotMultiple(f"{m} is not a multiple of {n}")
    if m == n:
        return f
    # the lift repeated m/n times: copy j of each breakpoint is moved by j n
    xn, xd, yn, yd, sn, sd = _pl(f.base, "degree embedding needs a PL base")._table
    k = m // n
    plkernel.check_cap(k * len(xn),
                       f"degree {m} would copy the table to more than {{cap}} breakpoints")

    def copies(nums, dens):
        return [a + j * n * b for j in range(k) for a, b in zip(nums, dens)]

    table = (
        copies(xn, xd), list(xd) * k, copies(yn, yd), list(yd) * k, list(sn) * k, list(sd) * k
    )
    return InducedHomeo(PLLift._from_table(m, table), f.offset)


def _normalize(base: PLLift, offset: int) -> InducedHomeo:
    """Move the integer part of base(0) into the offset component."""
    j = math.floor(base.eval(Fraction(0)))
    if j:
        base = base.translate(-j)
    return InducedHomeo(base, offset + j)


def compose_induced(f: InducedHomeo, g: InducedHomeo) -> InducedHomeo:
    """The composite f after g, at degree lcm(deg f, deg g)."""
    L = math.lcm(f.degree, g.degree)
    f2 = embed_degree(f, L)
    g2 = embed_degree(g, L)
    outer = _pl(f2.base, "exact composition needs PL bases")
    inner = _pl(g2.base, "exact composition needs PL bases")
    return _normalize(outer.compose(inner.translate(g2.offset)), f2.offset)


def invert_induced(f: InducedHomeo) -> InducedHomeo:
    inv = _pl(f.base, "exact inversion needs a PL base").inverse()
    if f.offset:
        inv = inv.compose(rotation_lift(-f.offset, f.degree))
    return _normalize(inv, 0)


def homeo_from_descriptor(d: dict) -> InducedHomeo:
    lift = map_from_descriptor(d["lift"])
    if json_int(d.get("degree", lift.degree), "degree") != lift.degree:
        raise ValueError("descriptor degree disagrees with lift degree")
    return InducedHomeo(lift, json_int(d.get("offset", 0), "offset"))


@dataclass(frozen=True)
class LimitPeriodicHomeo:
    """Certified finite tower of periodic displacement summands.

    Represents h = id + sum_j delta_j with periods T_1 | T_2 | ... | T_m,
    plus a declared bound on whatever infinite tail the finite data
    truncates.  Checks read only finite levels: `tail_from(j)` bounds
    sup |h - h_j| with that bound added, `sup_gaps()` is the exact sup.
    It and `lp_truncate` sum the summands on integers and evaluate none.
    """

    tower: tuple[int, ...]
    summands: tuple[PeriodicPL, ...]
    tail_bound: Fraction = Fraction(0)

    @property
    def levels(self) -> int:
        return len(self.tower)

    def eval(self, x):
        return x + self.displacement_eval(x)

    def displacement_eval(self, x):
        return sum(d.eval(x) for d in self.summands)

    def tail_from(self, level: int) -> Fraction:
        """Certified bound B_j on sup |h - truncation at level j|."""
        if not 1 <= level <= self.levels:
            raise ValueError(f"level must be in 1..{self.levels}")
        return sum(
            (d.sup_norm() for d in self.summands[level:]), start=self.tail_bound
        )

    def sup_gaps(self) -> list[Fraction]:
        """Exact sup |h - truncation at level j|, j = 1..levels: the sup norm of
        the finite tail sum_{i>j} delta_i, one running suffix sum of the rows
        of summands m, ..., 2 (`_tower_rows`).  Level m's gap is 0."""
        _, Q, _, rows = _tower_rows(self.summands[:0:-1], self.tower[-1])
        tails = accumulate(rows, lambda tail, row: [a + b for a, b in zip(tail, row)])
        return [Fraction(max(map(abs, tail)), Q) for tail in tails][::-1] + [Fraction(0)]

    def to_descriptor(self) -> dict:
        return {
            "lp": {
                "tower": list(self.tower),
                "summands": [
                    {
                        "period": str(d.period),
                        "breakpoints": [[str(x), str(v)] for x, v in zip(d.xs, d.vs)],
                    }
                    for d in self.summands
                ],
                "tail_bound": str(self.tail_bound),
            }
        }


def lp_build(tower, summands, tail_bound=0) -> LimitPeriodicHomeo:
    """Validate and assemble a certified limit-periodic homeomorphism.

    The tower must be a divisor chain; summand j must have stored period
    T_j; every truncation id + S_j, S_j = sum_{i<=j} delta_i, must be
    strictly increasing (each truncation is itself a homeomorphism); the
    tail bound must be nonnegative.

    A continuous PL map increases iff its slopes are positive, so the
    truncation check reads slopes only: one merge per level of S_{j-1}'s
    pieces with delta_j's, on integer slopes over one denominator R, with no
    value evaluated and no S_j built.  The breakpoint cap bounds each merged
    level: BreakpointCapExceeded is raised before S_{j-1}'s breakpoints are
    repeated over [0, T_j) past the cap.
    """
    tail_bound = as_rational(tail_bound)
    if tail_bound < 0:
        raise ValueError(f"tail_bound must be nonnegative, got {tail_bound}")
    tower = tuple(int(T) for T in tower)
    summands = tuple(summands)
    if len(tower) != len(summands) or not tower:
        raise ValueError("tower and summands must be nonempty and equal length")
    for T in tower:
        if T < 1:
            raise NotDivisorChain("tower periods must be positive integers")
    for a, b in zip(tower, tower[1:]):
        if b % a != 0:
            raise NotDivisorChain(f"{a} does not divide {b}")
    for T, d in zip(tower, summands):
        if d.period != T:
            raise ValueError(f"summand period {d.period} != tower period {T}")
    # S_j = delta_1 + ... + delta_j as its breakpoints over [0, T_j) and its
    # slope on the piece from each, integers over D and R: the pieces of
    # S_{j-1} repeated T_j / T_{j-1} times, merged with delta_j's
    D = math.lcm(*(b for d in summands for b in d._table[1]))
    R = math.lcm(*(b for d in summands for b in d._table[5]))
    for j, (T, d) in enumerate(zip(tower, summands)):
        xn, xd, _, _, sn, sd = d._table
        bx, bs = _over(xn, xd, D), [s - R for s in _over(sn, sd, R)]  # delta's slope is s - 1
        if j:
            reps = T // P
            plkernel.check_cap(max(reps * len(xs), len(bx)),
                               f"more than {{cap}} breakpoints over [0, {T})")
            ax = [a + k * P * D for k in range(reps) for a in xs]
            xs, slopes = _merge_slopes(ax, slopes * reps, bx, bs)
        else:
            xs, slopes = bx, bs
        P = T
        if min(slopes) <= -R:
            raise NotHomeomorphism(
                "partial displacement sum has slope <= -1; id + sum not increasing"
            )
    return LimitPeriodicHomeo(tower, summands, tail_bound)


def _merge_slopes(ax, a_slopes, bx, b_slopes) -> tuple[list, list]:
    """The sorted union of two sorted breakpoint lists over one period, with
    the sum of both slopes on the piece from each point; the piece before a
    list's first point carries its last slope."""
    xs, slopes = [], []
    sa, sb = a_slopes[-1], b_slopes[-1]
    i = k = 0
    na, nb = len(ax), len(bx)
    while i < na or k < nb:
        if k == nb or (i < na and ax[i] <= bx[k]):
            x, sa = ax[i], a_slopes[i]
            i += 1
            if k < nb and bx[k] == x:
                sb = b_slopes[k]
                k += 1
        else:
            x, sb = bx[k], b_slopes[k]
            k += 1
        xs.append(x)
        slopes.append(sa + sb)
    return xs, slopes


def _over(nums, dens, den: int) -> list:
    """The numerators of nums[i]/dens[i], each denominator dividing `den`, over `den`."""
    return [a * (den // b) for a, b in zip(nums, dens)]


def _tower_rows(summands, T: int) -> tuple[int, int, list, list]:
    """(D, Q, grid, rows): the sorted union of the summands' breakpoints over
    [0, T), as integers over one denominator D, and rows[i][k] / Q, summand i
    at grid point k, with Q = D L for the lcm L of the y and slope
    denominators of the tables.  Each row is one walk along the grid; T is a
    multiple of every period.  Raises BreakpointCapExceeded when an operand
    of the sum, a summand repeated over [0, T) or the union of those before
    it, passes the cap."""
    D = math.lcm(*(b for d in summands for b in d._table[1]))
    L = math.lcm(*(b for d in summands for k in (3, 5) for b in d._table[k]))
    points, starts = set(), []
    for d in summands:
        P, bx = d.period, _over(d._table[0], d._table[1], D)
        plkernel.check_cap(max(len(points), T // P * len(bx)),
                           f"more than {{cap}} breakpoints over [0, {T})")
        # piece starts: the last breakpoint a period back, ..., a stop past the grid
        starts.append([bx[-1] - P * D, *(b + k * P * D for k in range(T // P) for b in bx), T * D])
        points.update(starts[-1][1:-1])
    grid, rows = sorted(points), []
    for d, a in zip(summands, starts):
        xn, xd, yn, yd, sn, sd = d._table
        # delta = y - x and its slope s - 1, times Q and L
        vq = [y - x for y, x in zip(_over(yn, yd, D * L), _over(xn, xd, D * L))]
        sq, j, row, reps = [s - L for s in _over(sn, sd, L)], 0, [], T // d.period
        v, s = vq[-1:] + vq * reps, sq[-1:] + sq * reps
        for g in grid:
            if g == a[j + 1]:
                j += 1
            row.append(v[j] + (g - a[j]) * s[j])
        rows.append(row)
    return D, D * L, grid, rows


def lp_truncate(h: LimitPeriodicHomeo, level: int) -> tuple[InducedHomeo, Fraction]:
    """Induced homeomorphism of degree T_level with the first `level` summands,
    together with the certified sup bound on the discarded tail.  The lift
    x + S(x) is tabled on the summands' union grid from the prefix sum of
    their rows (`_tower_rows`) and cut by `plkernel.descend`."""
    if not 1 <= level <= h.levels:
        raise ValueError(f"level must be in 1..{h.levels}")
    T = h.tower[level - 1]
    D, Q, grid, rows = _tower_rows(h.summands[:level], T)
    ys = [g * (Q // D) + v for g, v in zip(grid, map(sum, zip(*rows)))]
    # the last piece runs to the first point one period on
    rise = [b - a for a, b in zip(ys, ys[1:] + [ys[0] + T * Q])]
    run = [Q // D * (b - a) for a, b in zip(grid, grid[1:] + [grid[0] + T * D])]
    table = []
    for nums, dens in ((grid, [D] * len(grid)), (ys, [Q] * len(ys)), (rise, run)):
        gs = list(map(math.gcd, nums, dens))
        table += [[a // g for a, g in zip(nums, gs)], [b // g for b, g in zip(dens, gs)]]
    return InducedHomeo(PLLift._from_table(T, plkernel.descend(T, table, T))), h.tail_from(level)


def lp_from_descriptor(d: dict) -> LimitPeriodicHomeo:
    body = d["lp"]
    if not isinstance(body, dict):
        raise TypeError("an lp descriptor must be a JSON object")
    summands = [
        PeriodicPL(s["period"], [(x, v) for x, v in s["breakpoints"]])
        for s in body["summands"]
    ]
    tower = body["tower"]
    if not isinstance(tower, list):
        raise TypeError("an lp tower must be a JSON list")
    tower = [json_int(T, "a tower period") for T in tower]
    return lp_build(tower, summands, body.get("tail_bound", 0))
