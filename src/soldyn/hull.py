"""Translation-orbit closures of displacement functions and semi-conjugacy.

For a periodic displacement with minimal period T the map t -> delta^t is a
homeomorphism R/TZ -> hull, so hull points are stored parametrically as a
residue t mod T; nothing is approximated.  Limit-periodic displacements are
handled only through their certified finite truncations.

An induced map's leaf lift F is id + delta: `leaf_quotient` decides T and
cuts F's integer table to the quotient map g, which `circle_map` reads at any
level d that T divides.  `hull_of` and `quotient_map` run the same search
and cut on a bare `PeriodicPL` delta's own table, that of id + delta.  Every
period is an int.

`check_semiconjugacy` runs an exact sample on integer pairs: both sides are
read off the lifts' tables and compared mod T by one cross-multiplication,
so a call builds one Fraction, its worst error, and no point objects.
`K_map` and `hull_dist` are the same steps on single points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import plkernel
from .circlemaps import PeriodicPL, PLLift, _pl, minimal_period
from .errors import MixedHulls, NotIncreasing, NotInducedAtLevel
from .induced import (
    InducedHomeo,
    LimitPeriodicHomeo,
    apply,
    embed_degree,
    lp_truncate,
)
from .solenoid import CirclePointModN, SolenoidPoint, project


@dataclass(frozen=True)
class Hull:
    """The orbit closure of a periodic displacement, as the circle R/TZ."""

    delta: PeriodicPL
    period: int

    def translate(self, t) -> "HullPoint":
        return HullPoint(self, Fraction(t) % self.period)

    @property
    def neutral(self) -> "HullPoint":
        return HullPoint(self, Fraction(0))


@dataclass(frozen=True)
class HullPoint:
    """The translate delta^t, named by its parameter t in [0, T)."""

    hull: Hull
    param: Fraction

    def eval(self, x):
        return self.hull.delta.eval(x + self.param)


def hull_of(delta: PeriodicPL) -> Hull:
    """Hull of a periodic PL displacement at its exact minimal period."""
    return Hull(delta, minimal_period(delta))


def _same_hull(a: HullPoint, b: HullPoint) -> Hull:
    ha, hb = a.hull, b.hull
    if ha is hb:
        return ha
    if ha.period != hb.period or ha.delta != hb.delta:
        raise MixedHulls("hull points belong to different hulls")
    return ha


def hull_mul(a: HullPoint, b: HullPoint) -> HullPoint:
    """The * product; parameters add mod T."""
    h = _same_hull(a, b)
    return HullPoint(h, (a.param + b.param) % h.period)


def hull_inv(a: HullPoint) -> HullPoint:
    return HullPoint(a.hull, (-a.param) % a.hull.period)


def hull_dist(a: HullPoint, b: HullPoint) -> Fraction:
    """Arc distance of the parameters on R/TZ.  Scaled by B = b1 b2 for
    parameters p1/b1 and p2/b2, it is min(d, M - d) for the integers M = T B
    and d = B (p1/b1 - p2/b2) mod M."""
    h = _same_hull(a, b)
    x, y = a.param, b.param
    B = x.denominator * y.denominator
    M = h.period * B
    d = (x.numerator * y.denominator - y.numerator * x.denominator) % M
    return Fraction(min(d, M - d), B)


def K_map(s: SolenoidPoint, hull: Hull) -> HullPoint:
    """The homomorphism solenoid -> hull with K(sigma(t)) = delta^t.

    It factors through the level-T projection for the hull period T, so the
    parameter is project(s, T).
    """
    v = project(s, hull.period).value
    return HullPoint(hull, v if isinstance(v, Fraction) else Fraction(v))


@dataclass(frozen=True)
class QuotientMap:
    """The quotient dynamics gamma -> gamma * delta^{gamma(0)} on the hull.

    In parameters this is the circle map t -> t + delta(t) mod T, realized
    by a strictly increasing degree-T PL lift.
    """

    period: int
    lift: PLLift

    def param_apply(self, t) -> Fraction:
        v = self.lift.eval(t)
        return (v if isinstance(v, Fraction) else Fraction(v)) % self.period


def quotient_map(delta: PeriodicPL) -> QuotientMap:
    T, table = plkernel.least_period(delta.period, delta._table)
    if min(table[4]) <= 0:  # a continuous PL map increases iff its slopes are positive
        raise NotIncreasing("id + delta is not strictly increasing")
    return QuotientMap(T, PLLift._from_table(T, table))


def leaf_quotient(f: InducedHomeo) -> QuotientMap:
    """g: the leaf lift F = id + delta cut by `plkernel.least_period` at the
    minimal period T of delta.  F is read as a table; only g is a lift."""
    base = _pl(f.base, "the quotient map needs a PL base")
    T, table = plkernel.least_period(f.degree, plkernel.translate(base._table, f.offset, 1))
    return QuotientMap(T, PLLift._from_table(T, table))


def circle_map(f: InducedHomeo, d: int) -> "CircleMapModN":
    """The circle homeomorphism of R/dZ covered by f through the projection.

    Exists exactly when the displacement's minimal period T divides d (for
    d = degree this is automatic), and is then the hull's quotient map read
    at level d.  Raises NotInducedAtLevel otherwise: a degree-n map with
    genuinely n-periodic displacement does not descend to coarser levels.
    """
    if d < 1:
        raise ValueError("level must be a positive integer")
    gm = leaf_quotient(f)
    if d % gm.period:
        raise NotInducedAtLevel(f"no covered map at level {d}; period {gm.period}")
    return CircleMapModN(d, embed_degree(InducedHomeo(gm.lift), d).base)


@dataclass(frozen=True)
class CircleMapModN:
    """An orientation-preserving circle homeomorphism of R/nZ with PL lift."""

    modulus: int
    lift: PLLift

    def __call__(self, u):
        val = u.value if isinstance(u, CirclePointModN) else u
        return CirclePointModN(self.modulus, self.lift.eval(val) % self.modulus)


def g_apply(gm: QuotientMap, hp: HullPoint) -> HullPoint:
    if gm.period != hp.hull.period:
        raise MixedHulls("quotient map and hull point have different periods")
    return HullPoint(hp.hull, gm.param_apply(hp.param))


def isotopy_eval(delta: PeriodicPL, c, hp: HullPoint) -> HullPoint:
    """The isotopy G(c, gamma) = gamma * delta^{c gamma(0)} in parameters.

    c = 0 is the identity, c = 1 is the quotient map g.
    """
    if not 0 <= c <= 1:
        raise ValueError("isotopy parameter must lie in [0, 1]")
    c = Fraction(c)
    T = hp.hull.period
    t = hp.param
    return HullPoint(hp.hull, (t + c * delta.eval(t)) % T)


@dataclass(frozen=True)
class SemiconjugacyReport:
    max_error: Fraction
    exact: bool
    samples: int
    period: int

    def to_report(self) -> dict:
        return {
            "max_error": str(self.max_error),
            "exact": self.exact,
            "samples": self.samples,
            "period": str(self.period),
        }


def check_semiconjugacy(
    f: InducedHomeo, samples, quotient: Optional[QuotientMap] = None
) -> SemiconjugacyReport:
    """Verify K(f(s)) = g(K(s)) over the sample points.

    Both sides are exact, on T and g from `leaf_quotient`.  The left side
    applies f at the fiber residue and projects; the right side runs the cut
    g, which differs from the apply path unless T really is a period.  A
    custom `quotient` may be injected to confirm corruption is detected.

    An exact sample x = a/b, k runs on integer pairs.  With r = k mod n the
    left side is F0((a + r b)/b) + offset - r + k, where k - r is a multiple
    of n, hence of T; the right side is g((a + r b)/b mod T).  Neither side
    is reduced mod T: the error, `hull_dist`'s min(d, M - d) / B with
    d = B (lhs - rhs) mod M and M = T B, does that.  The worst error is kept
    as an integer pair, so a call builds one Fraction.  A binary64 sample
    goes through `apply`, `project` and `param_apply`.
    """
    g = leaf_quotient(f)
    gm = quotient if quotient is not None else g
    T = g.period
    if gm.period != T:
        raise MixedHulls(f"quotient map of period {gm.period}, hull of period {T}")
    n, table, forms, offset = f.degree, f.base._table, f.base._forms, f.offset
    g_table, g_forms, g_degree = gm.lift._table, gm.lift._forms, gm.lift.degree
    worst_n, worst_d = 0, 1
    count = 0
    for s in samples:
        count += 1
        r = s.k.residue(n)  # raises DepthExceeded unless n | depth!
        x = s.x
        if isinstance(x, Fraction):
            a, b = x.numerator, x.denominator
            ln, ld = plkernel.eval_pair(table, forms, n, a + r * b, b)
            ln += offset * ld
            rn, rd = plkernel.eval_pair(g_table, g_forms, g_degree, (a + r * b) % (T * b), b)
        else:
            lhs = Fraction(project(apply(f, s), T).value)
            rhs = gm.param_apply(Fraction(project(s, T).value))
            ln, ld, rn, rd = lhs.numerator, lhs.denominator, rhs.numerator, rhs.denominator
        B = ld * rd
        M = T * B
        d = (ln * rd - rn * ld) % M
        err = min(d, M - d)
        if err * worst_d > worst_n * B:
            worst_n, worst_d = err, B
    return SemiconjugacyReport(Fraction(worst_n, worst_d), worst_n == 0, count, g.period)


@dataclass(frozen=True)
class Periodic:
    period: int


@dataclass(frozen=True)
class LimitPeriodicCertified:
    tower: tuple[int, ...]
    bounds: tuple[Fraction, ...]


PeriodicityVerdict = Union[Periodic, LimitPeriodicCertified]


def periodicity_classify(source) -> PeriodicityVerdict:
    """Classify a displacement source as periodic / certified limit periodic.

    Induced maps and exact PL displacements get their exact minimal period;
    limit-periodic objects echo their certificate.
    """
    if isinstance(source, LimitPeriodicHomeo):
        bounds = tuple(source.tail_from(j) for j in range(1, source.levels + 1))
        return LimitPeriodicCertified(source.tower, bounds)
    if isinstance(source, InducedHomeo):
        return Periodic(leaf_quotient(source).period)
    return Periodic(minimal_period(source))


def lp_hull_level(h: LimitPeriodicHomeo, level: int) -> tuple[Hull, Fraction]:
    """Level-j circle hull of a limit-periodic family with its error bound."""
    trunc, bound = lp_truncate(h, level)
    g = leaf_quotient(trunc)
    return Hull(g.lift.displacement(), g.period), bound
