"""Monotone lifts of circle homeomorphisms of R/nZ.

Two representations are provided.  Piecewise-linear lifts carry exact
rational breakpoint data and support exact composition, inversion and
iteration; every certification claim in this package is made through them.
The analytic family is binary64-only and exists for exploration.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .errors import (
    AnalyticExactUnsupported,
    BreakpointCapExceeded,
    DegreeMismatch,
    EmptyBreakpoints,
    NotMonotone,
)

BREAKPOINT_CAP = 10**6


def floor_div(x, n):
    """floor(x / n) without building intermediate Fractions; exact for exact x."""
    if isinstance(x, Fraction):
        if isinstance(n, Fraction):
            return (x.numerator * n.denominator) // (x.denominator * n.numerator)
        return x.numerator // (x.denominator * n)
    if isinstance(x, int):
        return x // n
    return math.floor(x / n)


def as_rational(v) -> Fraction:
    """Coerce exact input (int, Fraction, 'p/q' string) to Fraction.

    Floats are rejected: the PL variant is the exact one and silently
    accepting binary64 would poison certifications.
    """
    if isinstance(v, float):
        raise TypeError("exact PL data requires int/Fraction/str, not float")
    return Fraction(v)


def _slope(x0: Fraction, y0: Fraction, x1: Fraction, y1: Fraction) -> Fraction:
    """(y1 - y0) / (x1 - x0) over common denominators, normalized once."""
    xd0, xd1, yd0, yd1 = x0.denominator, x1.denominator, y0.denominator, y1.denominator
    return Fraction(
        (y1.numerator * yd0 - y0.numerator * yd1) * (xd0 * xd1),
        (x1.numerator * xd0 - x0.numerator * xd1) * (yd0 * yd1),
    )


class PLLift:
    """Strictly increasing piecewise-linear map with F(x + n) = F(x) + n."""

    __slots__ = ("degree", "xs", "ys", "slopes")

    def __init__(self, degree: int, breakpoints) -> None:
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        pts = sorted((as_rational(x), as_rational(y)) for x, y in breakpoints)
        if not pts:
            raise EmptyBreakpoints("a PL lift needs at least one breakpoint")
        xs = tuple(p[0] for p in pts)
        ys = tuple(p[1] for p in pts)
        if xs[0] < 0 or xs[-1] >= degree:
            raise ValueError(f"breakpoint abscissae must lie in [0, {degree})")
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                raise NotMonotone(f"duplicate breakpoint at x={xs[i]}")
            if ys[i] >= ys[i + 1]:
                raise NotMonotone(f"values must increase: y({xs[i]}) >= y({xs[i + 1]})")
        if ys[-1] >= ys[0] + degree:
            raise NotMonotone("wrap-around violates strict monotonicity")
        self._set(degree, xs, ys)

    def _set(self, degree: int, xs: tuple, ys: tuple) -> None:
        slopes = [_slope(xs[i], ys[i], xs[i + 1], ys[i + 1]) for i in range(len(xs) - 1)]
        slopes.append(_slope(xs[-1], ys[-1], xs[0] + degree, ys[0] + degree))
        self.degree = degree
        self.xs = xs
        self.ys = ys
        self.slopes = tuple(slopes)

    @classmethod
    def _trusted(cls, degree: int, xs: tuple, ys: tuple) -> "PLLift":
        """A lift from breakpoint data already known to be valid.

        `xs` must be sorted in [0, degree) and `ys` strictly increasing with
        ys[-1] < ys[0] + degree, all Fractions; only the slopes are computed.
        """
        lift = cls.__new__(cls)
        lift._set(degree, xs, ys)
        return lift

    def eval(self, x):
        n = self.degree
        j = floor_div(x, n)
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

    __call__ = eval

    def iterate_eval(self, x, q: int):
        """Evaluate F^q(x) by repeated application; q < 0 uses the inverse."""
        if q < 0:
            return self.inverse().iterate_eval(x, -q)
        for _ in range(q):
            x = self.eval(x)
        return x

    def compose(self, other: "PLLift") -> "PLLift":
        """Exact composition self(other(x)); breakpoint sets merge.

        The result's breakpoints are other's breakpoints, where self is
        evaluated at other's values, plus the preimages under other of self's
        breakpoints, where the value is self's breakpoint value shifted by
        the integer carry and no evaluation is needed.
        """
        if not isinstance(other, PLLift):
            raise AnalyticExactUnsupported("exact composition needs PL lifts")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        n = self.degree
        pts = {x: self.eval(y) for x, y in zip(other.xs, other.ys)}
        oxs, oys, oslopes = other.xs, other.ys, other.slopes
        y0 = oys[0]
        for u, v in zip(self.xs, self.ys):
            # u - m*n lies in [y0, y0 + n), the range of other on [xs[0], xs[0] + n)
            m = floor_div(u - y0, n)
            w = u - m * n if m else u
            i = bisect.bisect_right(oys, w) - 1
            z = oxs[i] + (w - oys[i]) / oslopes[i]
            if z >= n:
                z -= n
                m += 1
            pts[z] = v - m * n if m else v
        xs = tuple(sorted(pts))
        return PLLift._trusted(n, xs, tuple(pts[x] for x in xs))

    def inverse(self) -> "PLLift":
        n = self.degree
        xs, ys = self.xs, self.ys
        # ys span less than one period, so reducing them mod n rotates the list
        j = floor_div(ys[0], n)
        lo, hi = j * n, (j + 1) * n
        cut = bisect.bisect_left(ys, hi)
        new_xs = [y - hi for y in ys[cut:]] + [y - lo if j else y for y in ys[:cut]]
        new_ys = [x - hi for x in xs[cut:]] + [x - lo if j else x for x in xs[:cut]]
        return PLLift._trusted(n, tuple(new_xs), tuple(new_ys))

    def power(self, q: int, cap: int = BREAKPOINT_CAP) -> "PLLift":
        """Materialize F^q as a PL lift (exponentiation by squaring)."""
        if q < 0:
            return self.inverse().power(-q, cap)
        result = identity_lift(self.degree)
        base = self
        while q:
            if q & 1:
                result = result.compose(base)
                if len(result.xs) > cap:
                    raise BreakpointCapExceeded(f"more than {cap} breakpoints")
            q >>= 1
            if q:
                base = base.compose(base)
                if len(base.xs) > cap:
                    raise BreakpointCapExceeded(f"more than {cap} breakpoints")
        return result

    def translate(self, c) -> "PLLift":
        """The lift F + c."""
        c = as_rational(c)
        return PLLift(self.degree, [(x, y + c) for x, y in zip(self.xs, self.ys)])

    def shift_input(self, r) -> "PLLift":
        """Conjugation by translation: x -> F(x + r) - r."""
        r = as_rational(r)
        n = self.degree
        pts = []
        for x, y in zip(self.xs, self.ys):
            z = x - r
            j = floor_div(z, n)
            pts.append((z - j * n, y - r - j * n))
        return PLLift(n, pts)

    def canonical_breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Breakpoints where the slope actually changes; rotations anchor at 0.

        Two PL lifts describe the same function iff their degrees and
        canonical breakpoint tuples agree.
        """
        m = len(self.xs)
        keep = []
        for i in range(m):
            if self.slopes[i - 1] != self.slopes[i]:
                keep.append((self.xs[i], self.ys[i]))
        if not keep:
            z = Fraction(0)
            return ((z, self.eval(z)),)
        return tuple(keep)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLLift):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.canonical_breakpoints() == other.canonical_breakpoints()
        )

    def __hash__(self):
        return hash((self.degree, self.canonical_breakpoints()))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in zip(self.xs, self.ys))
        return f"PLLift(degree={self.degree}, [{pts}])"

    def displacement(self) -> "PeriodicPL":
        return PeriodicPL(
            self.degree, [(x, y - x) for x, y in zip(self.xs, self.ys)]
        )

    def to_descriptor(self) -> dict:
        return {
            "degree": self.degree,
            "variant": "pl",
            "breakpoints": [[str(x), str(y)] for x, y in zip(self.xs, self.ys)],
        }


class AnalyticLift:
    """Binary64 lift x + alpha + sum_j a_j sin(2 pi x / T_j).

    Each period T_j must divide the degree so the lift stays n-equivariant
    (to roundoff).  The derivative margin sum |a_j| 2 pi / T_j < 1 keeps the
    map strictly increasing.
    """

    __slots__ = ("degree", "alpha", "terms")

    def __init__(self, alpha: float, terms=(), degree: int = 1) -> None:
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        alpha = float(alpha)
        terms = tuple((float(a), float(T)) for a, T in terms)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha {alpha} is not finite")
        margin = 0.0
        for a, T in terms:
            if not (math.isfinite(a) and math.isfinite(T)):
                raise ValueError(f"perturbation term ({a}, {T}) is not finite")
            if T <= 0:
                raise ValueError("perturbation periods must be positive")
            ratio = degree / T
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"period {T} does not divide degree {degree}")
            margin += abs(a) * 2 * math.pi / T
        if margin >= 1:
            raise NotMonotone(f"derivative margin {margin} >= 1")
        self.degree = degree
        self.alpha = alpha
        self.terms = terms

    def eval(self, x):
        x = float(x)
        y = x + self.alpha
        for a, T in self.terms:
            y += a * math.sin(2 * math.pi * x / T)
        return y

    __call__ = eval

    def iterate_eval(self, x, q: int):
        if q < 0:
            raise AnalyticExactUnsupported("analytic lifts have no exact inverse")
        x = float(x)
        for _ in range(q):
            x = self.eval(x)
        return x

    def displacement(self) -> "AnalyticDisplacement":
        return AnalyticDisplacement(self)

    def to_descriptor(self) -> dict:
        return {
            "degree": self.degree,
            "variant": "analytic",
            "alpha": self.alpha,
            "terms": [[a, T] for a, T in self.terms],
        }

    def __repr__(self) -> str:
        return f"AnalyticLift(alpha={self.alpha}, terms={self.terms}, degree={self.degree})"


CircleLift = PLLift | AnalyticLift


class PeriodicPL:
    """Continuous piecewise-linear function with exact rational period."""

    __slots__ = ("period", "xs", "vs", "slopes")

    def __init__(self, period, breakpoints) -> None:
        period = as_rational(period)
        if period <= 0:
            raise ValueError("period must be positive")
        pts = sorted((as_rational(x), as_rational(v)) for x, v in breakpoints)
        if not pts:
            raise EmptyBreakpoints("a periodic PL function needs a breakpoint")
        xs = tuple(p[0] for p in pts)
        vs = tuple(p[1] for p in pts)
        if xs[0] < 0 or xs[-1] >= period:
            raise ValueError(f"breakpoint abscissae must lie in [0, {period})")
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                raise ValueError(f"duplicate breakpoint at x={xs[i]}")
        slopes = []
        for i in range(len(xs) - 1):
            slopes.append((vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i]))
        slopes.append((vs[0] - vs[-1]) / (xs[0] + period - xs[-1]))
        self.period = period
        self.xs = xs
        self.vs = vs
        self.slopes = tuple(slopes)

    def eval(self, x):
        T = self.period
        j = floor_div(x, T)
        x0 = x - j * T if j else x
        i = bisect.bisect_right(self.xs, x0) - 1
        if i < 0:
            x1 = self.xs[-1] - T
            v1 = self.vs[-1]
        else:
            x1 = self.xs[i]
            v1 = self.vs[i]
        return v1 + (x0 - x1) * self.slopes[i]

    __call__ = eval

    def sup_norm(self) -> Fraction:
        """Exact sup |delta|; PL extrema occur at breakpoints."""
        return max(abs(v) for v in self.vs)

    def min_slope(self) -> Fraction:
        return min(self.slopes)

    def translate(self, t) -> "PeriodicPL":
        """The translate delta^t(x) = delta(x + t)."""
        t = as_rational(t)
        T = self.period
        pts = []
        for x, v in zip(self.xs, self.vs):
            z = (x - t) % T
            pts.append((z, v))
        return PeriodicPL(T, pts)

    def add_const(self, c) -> "PeriodicPL":
        c = as_rational(c)
        return PeriodicPL(self.period, [(x, v + c) for x, v in zip(self.xs, self.vs)])

    def scale(self, c) -> "PeriodicPL":
        c = as_rational(c)
        return PeriodicPL(self.period, [(x, v * c) for x, v in zip(self.xs, self.vs)])

    def grid(self, T) -> set:
        """Breakpoint abscissae repeated over [0, T); T a multiple of the period."""
        P = self.period
        offsets = [j * P for j in range(int(T / P))]
        return {x + off for off in offsets for x in self.xs}

    def _common_grid(self, other: "PeriodicPL"):
        """A common period T and the union of both breakpoint grids over it."""
        T = max(self.period, other.period)
        if (T / self.period).denominator != 1 or (T / other.period).denominator != 1:
            raise ValueError(f"incommensurable periods {self.period}, {other.period}")
        return T, self.grid(T) | other.grid(T)

    def add(self, other: "PeriodicPL") -> "PeriodicPL":
        """Pointwise sum; periods must be equal or one a multiple of the other."""
        T, grid = self._common_grid(other)
        return PeriodicPL(T, [(x, self.eval(x) + other.eval(x)) for x in sorted(grid)])

    def sup_diff(self, other: "PeriodicPL") -> Fraction:
        """Exact sup |self - other| over a common period."""
        _, grid = self._common_grid(other)
        return max(abs(self.eval(x) - other.eval(x)) for x in grid)

    def has_period(self, T) -> bool:
        """Exact test whether delta(x + T) = delta(x) for all x.

        A continuous periodic PL function is determined by its slope-change
        points and their values, so T is a period exactly when shifting the
        canonical breakpoints by T (mod the stored period) gives the same
        set.  A constant function has no such points and every period.
        """
        T = as_rational(T)
        if T <= 0:
            raise ValueError("candidate period must be positive")
        P = self.period
        canon = self.canonical_breakpoints()
        return {((x - T) % P, v) for x, v in canon} == set(canon)

    def canonical_breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        keep = []
        for i in range(len(self.xs)):
            if self.slopes[i - 1] != self.slopes[i]:
                keep.append((self.xs[i], self.vs[i]))
        return tuple(keep)

    def is_constant(self) -> bool:
        return not self.canonical_breakpoints()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicPL):
            return NotImplemented
        if self.period != other.period:
            return False
        a, b = self.canonical_breakpoints(), other.canonical_breakpoints()
        if not a and not b:
            return self.vs[0] == other.vs[0]
        return a == b

    def __hash__(self):
        return hash((self.period, self.canonical_breakpoints() or self.vs[0]))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {v})" for x, v in zip(self.xs, self.vs))
        return f"PeriodicPL(period={self.period}, [{pts}])"


class AnalyticDisplacement:
    """Float view of F - id for an analytic lift, with a certified sup bound."""

    __slots__ = ("lift",)

    def __init__(self, lift: AnalyticLift) -> None:
        self.lift = lift

    def eval(self, x):
        return self.lift.eval(x) - float(x)

    __call__ = eval

    def sup_bound(self) -> float:
        return abs(self.lift.alpha) + sum(abs(a) for a, _ in self.lift.terms)


def pl_new(degree: int, breakpoints) -> PLLift:
    return PLLift(degree, breakpoints)


def analytic_new(alpha: float, terms=(), degree: int = 1) -> AnalyticLift:
    return AnalyticLift(alpha, terms, degree)


def identity_lift(degree: int = 1) -> PLLift:
    return PLLift(degree, [(0, 0)])


def rotation_lift(alpha, degree: int = 1) -> PLLift:
    """The rigid rotation lift x -> x + alpha with exact rational alpha."""
    return PLLift(degree, [(0, as_rational(alpha))])


def displacement_lift(delta: PeriodicPL, period: int, offset=0) -> PLLift:
    """The degree-`period` lift of x -> x + delta(x) + offset.

    `period` must be an integer period of delta.  The breakpoints are
    delta's canonical ones reduced mod `period`, plus 0.
    """
    xs = sorted({x % period for x, _ in delta.canonical_breakpoints()} | {Fraction(0)})
    return PLLift(period, [(x, x + delta.eval(x) + offset) for x in xs])


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def minimal_period(delta: PeriodicPL, candidates=None):
    """Smallest candidate period T with delta(x + T) = delta(x), decided exactly.

    Each candidate goes through `PeriodicPL.has_period`, which compares the
    canonical breakpoints shifted by T with the unshifted ones.  By default
    candidates are the divisors of the (integer) stored period;
    displacements of degree-n lifts always admit T = n, so the search cannot
    fail.  Non-divisor rational periods are out of scope here.
    """
    if candidates is None:
        P = delta.period
        if P.denominator != 1:
            raise ValueError("default candidates need an integer period")
        candidates = divisors(P.numerator)
    for T in sorted(candidates, key=Fraction):
        if delta.has_period(T):
            return T
    raise ValueError("no candidate period fits (stored period always should)")


def map_from_descriptor(d: dict) -> CircleLift:
    """Build a lift from its JSON descriptor."""
    if not isinstance(d, dict):
        raise TypeError("a map descriptor must be a JSON object")
    variant = d.get("variant")
    if variant == "pl":
        return PLLift(d.get("degree", 1), [(x, y) for x, y in d["breakpoints"]])
    if variant == "analytic":
        return AnalyticLift(d["alpha"], d.get("terms", ()), d.get("degree", 1))
    raise ValueError(f"unknown map variant: {variant!r}")
